"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro tables            # Tables I, III, IV
    python -m repro fig1              # break-even curves
    python -m repro fig5 --full       # paper-scale simulated savings
    python -m repro fig6              # 20-node cost / exec-time sweep (Figs 6 and 7)
    python -m repro all               # everything (reduced sizes)
    python -m repro check             # every paper claim; exits 1 if one fails
    python -m repro check --full      # the same claims at paper scale
    python -m repro fig8 --trace t.jsonl   # + structured JSONL trace
    python -m repro report t.jsonl    # per-epoch / per-solve tables
    python -m repro lint              # static analysis: code + LP models
    python -m repro bench             # epoch-LP benchmark, certified
    python -m repro serve --sim       # crash-tolerant service soak
    python -m repro serve --sim --live-port 8377   # + live HTTP telemetry
    python -m repro top http://127.0.0.1:8377      # live dashboard

Each experiment has one reduced size, shared by ``repro <name>`` and its
``repro check`` claim; ``--full`` switches to the paper's sizes.  One
invocation runs each experiment once, however many of its tables and
claims it prints.
``--trace``/``--metrics`` stream observability data from every
simulation the experiments run (see :mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import sys
from typing import Callable, Dict, List, Optional, Sequence


#: experiment name -> the ``repro.experiments`` module whose
#: ``main(full, csv_dir)`` prints it and returns an exit code.  Figures 6/7
#: and 9/10 are one module each: either name prints both tables, once.
COMMANDS: Dict[str, str] = {
    "tables": "tables",
    "fig1": "fig1_breakeven",
    "fig5": "fig5_simulated_savings",
    "fig6": "fig6_cost_reduction",
    "fig7": "fig6_cost_reduction",
    "fig8": "fig8_epoch_tradeoff",
    "fig9": "fig9_100node_cost",
    "fig10": "fig9_100node_cost",
    "fig11": "fig11_cpu_breakdown",
    "fairness": "exp_fairness",
    "frontier": "exp_deadline",
    "interference": "exp_interference",
    "check": "check",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the LiPS paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"one or more of: {', '.join(COMMANDS)}, or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's full experiment sizes (slower)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write result CSVs to DIR (supported: tables, fig5, fig9/fig10, frontier)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of every simulation to PATH "
        "(inspect with 'python -m repro report PATH')",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump of every simulation to PATH",
    )
    add_live_port_flag(parser)
    add_solver_flags(parser)
    return parser


def add_live_port_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared --live-port flag (see repro.obs.live)."""
    parser.add_argument(
        "--live-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live telemetry (/metrics, /healthz, /statusz, /trace) "
        "on 127.0.0.1:PORT while running; 0 picks a free port "
        "(printed).  Watch with 'python -m repro top'",
    )


def start_live_plane(stack: contextlib.ExitStack, port: int):
    """Start the live telemetry endpoint; returns the plane (server managed
    by ``stack``).  Prints the bound URL so ``repro top`` can be pointed at
    it even when ``port`` was 0."""
    from repro.obs.live import LiveTelemetryPlane, LiveTelemetryServer

    plane = LiveTelemetryPlane()
    server = stack.enter_context(LiveTelemetryServer(plane, port=port))
    print(f"live telemetry on {server.url}")
    return plane


def add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared LP-resilience flags (see repro.resilience)."""
    group = parser.add_argument_group("solver resilience")
    group.add_argument(
        "--solver-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-solve wall-clock budget, enforced by HiGHS's own time "
        "limit; a timed-out solve goes straight to the next backend",
    )
    group.add_argument(
        "--solver-retries",
        type=int,
        metavar="N",
        default=None,
        help="perturbed re-attempts per backend on numerical failure "
        "(default 2 when resilience is enabled)",
    )
    group.add_argument(
        "--solver-fallback",
        action="store_true",
        help="fall back from HiGHS to the from-scratch simplex backend "
        "when a solve fails",
    )


def install_resilient_solver(args) -> Optional[object]:
    """Honour the solver-resilience flags by swapping the default backend.

    Returns the previous default backend when a swap happened (restore it
    with :func:`repro.lp.set_default_backend`), else ``None``.
    """
    if (
        args.solver_timeout is None
        and args.solver_retries is None
        and not args.solver_fallback
    ):
        return None
    from repro.lp import HighsBackend, SimplexBackend, set_default_backend
    from repro.resilience import ResilientSolver

    backends: List[object] = [HighsBackend(time_limit_s=args.solver_timeout)]
    if args.solver_fallback:
        backends.append(SimplexBackend())
    solver = ResilientSolver(
        backends,
        max_retries=2 if args.solver_retries is None else args.solver_retries,
    )
    return set_default_backend(solver)


def build_report_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro report`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render per-epoch/per-machine/per-solve tables from a "
        "JSONL trace written with --trace.",
    )
    parser.add_argument("path", metavar="TRACE", help="JSONL trace file")
    parser.add_argument(
        "--limit",
        type=int,
        default=40,
        metavar="N",
        help="max rows in the LP solve table (default 40)",
    )
    parser.add_argument(
        "--chrome",
        metavar="OUT",
        default=None,
        help="also convert the trace to Chrome trace-event JSON at OUT "
        "(load in chrome://tracing or https://ui.perfetto.dev)",
    )
    return parser


def _run_report(argv: Sequence[str]) -> int:
    import json

    from repro.obs.export import load_jsonl, write_chrome_trace
    from repro.obs.report import render

    args = build_report_parser().parse_args(argv)
    try:
        print(render(args.path, limit=args.limit))
        if args.chrome:
            write_chrome_trace(load_jsonl(args.path), args.chrome)
            print(f"wrote {args.chrome}")
    except OSError as exc:
        print(f"cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"not a JSONL trace: {args.path!r} ({exc})", file=sys.stderr)
        return 2
    return 0


def build_lint_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro lint`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis in one run: per-module AST rules and "
        "whole-program flow passes (determinism, pool tasks, units) over "
        "the source trees, plus, when no PATH is given, a structural linter "
        "over the paper's LP models (no solver runs).  Exits 1 when any "
        "finding is reported.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: the installed repro "
        "package source and the shipped LP models)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    return parser


def _run_lint(argv: Sequence[str]) -> int:
    from pathlib import Path

    from repro.lint import lint_all, render_text

    args = build_lint_parser().parse_args(argv)
    report = lint_all([Path(p) for p in args.paths] if args.paths else None)
    if args.format == "json":
        print(report.to_json())
    else:
        print(render_text(report.findings))
        print(report.summary())
    return 0 if report.ok else 1


def build_chaos_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro chaos`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Chaos soak: run seeded fault storms (machine outages, "
        "stragglers, inter-AZ partitions, store read errors, optional "
        "solver sabotage) against the simulator and the online epoch "
        "controller, then check post-run invariants.  Exits 1 on any "
        "violation.",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0, 1, 2],
        metavar="SEED",
        help="seeds to soak (default: 0 1 2); each seed fully determines "
        "its cluster, workload and fault plan",
    )
    parser.add_argument("--machines", type=int, default=6, help="cluster size (default 6)")
    parser.add_argument("--jobs", type=int, default=6, help="workload size (default 6)")
    parser.add_argument(
        "--epoch", type=float, default=120.0, metavar="SECONDS", help="epoch length"
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=3000.0,
        metavar="SECONDS",
        help="span chaos windows are drawn inside (default 3000)",
    )
    parser.add_argument(
        "--mttf",
        type=float,
        default=3000.0,
        metavar="SECONDS",
        help="mean time to machine failure; 0 disables outages (default 3000)",
    )
    parser.add_argument(
        "--force-primary-failure",
        action="store_true",
        help="make every primary-backend solve fail (exercises the "
        "fallback chain end to end)",
    )
    parser.add_argument(
        "--force-all-failure",
        action="store_true",
        help="make the whole backend chain fail (exercises degraded-mode "
        "greedy epochs)",
    )
    parser.add_argument(
        "--solver-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-solve wall-clock budget of the soak chain's HiGHS backend "
        "(HiGHS's own time limit)",
    )
    parser.add_argument(
        "--solver-retries",
        type=int,
        metavar="N",
        default=1,
        help="perturbed re-attempts per backend (default 1)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of every soaked run to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump of the soak to PATH",
    )
    return parser


def _run_chaos(argv: Sequence[str]) -> int:
    from repro.experiments.report import format_table
    from repro.resilience import SoakConfig, run_soak, soak_summary

    args = build_chaos_parser().parse_args(argv)
    force = "none"
    if args.force_all_failure:
        force = "all"
    elif args.force_primary_failure:
        force = "primary"
    config = SoakConfig(
        seeds=tuple(args.seeds),
        num_machines=args.machines,
        num_jobs=args.jobs,
        epoch_length=args.epoch,
        horizon_s=args.horizon,
        force=force,
        mean_time_to_failure_s=args.mttf,
        solver_timeout_s=args.solver_timeout,
        solver_retries=args.solver_retries,
    )
    with contextlib.ExitStack() as stack:
        if args.trace:
            from repro.obs.trace import Tracer, use_tracer

            try:
                tracer = stack.enter_context(Tracer.to_path(args.trace))
            except OSError as exc:
                print(f"cannot write trace {args.trace!r}: {exc}", file=sys.stderr)
                return 2
            stack.enter_context(use_tracer(tracer))
        registry = None
        if args.metrics:
            from repro.obs.registry import MetricsRegistry, use_registry

            registry = MetricsRegistry()
            stack.enter_context(use_registry(registry))
        outcomes = run_soak(config)
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    rows = [
        (
            str(o.seed),
            str(o.faults_planned),
            f"{o.chaos_faults_injected:.0f}",
            f"{o.solver_failures:.0f}",
            f"{o.solver_fallbacks:.0f}",
            f"{o.epochs_degraded:.0f}",
            f"{o.makespan:.0f}",
            "OK" if o.ok else f"{len(o.violations)} VIOLATIONS",
        )
        for o in outcomes
    ]
    print(
        format_table(
            ["seed", "planned", "injected", "solver fail", "fallbacks",
             "degraded", "makespan s", "invariants"],
            rows,
            title=f"chaos soak — force={force}",
        )
    )
    for o in outcomes:
        for v in o.violations:
            print(f"seed {o.seed}: {v}", file=sys.stderr)
    summary = soak_summary(outcomes)
    print(
        f"{int(summary['seeds'])} seeds, "
        f"{summary['chaos_faults_injected']:.0f} faults injected, "
        f"{int(summary['violations'])} invariant violations"
    )
    return 0 if all(o.ok for o in outcomes) else 1


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Service-mode soak: run the crash-tolerant scheduling "
        "service (admission control, health watchdog, WAL + snapshots) "
        "against hours of simulated multi-submitter arrivals with chaos "
        "windows and mid-run kill/recover cycles, then gate on the serve "
        "invariant oracle and byte-identical ledger recovery.  Exits 1 on "
        "any violation.",
    )
    parser.add_argument(
        "--sim",
        action="store_true",
        help="run in simulated time (required: the only clock this "
        "reproduction has)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized soak: smaller cluster/workload, same >=2h sim-time "
        "gate (sim time is cheap; LP solves are what cost wall time)",
    )
    parser.add_argument("--seed", type=int, default=0, help="soak seed (default 0)")
    parser.add_argument(
        "--hours",
        type=float,
        default=None,
        metavar="H",
        help="simulated soak horizon in hours (default 2.5)",
    )
    parser.add_argument(
        "--min-hours",
        type=float,
        default=2.0,
        metavar="H",
        help="sim-time floor the soak must sustain (default 2.0)",
    )
    parser.add_argument(
        "--machines", type=int, default=None, help="cluster size (default 6; quick 4)"
    )
    parser.add_argument(
        "--submitters",
        type=int,
        default=None,
        help="concurrent submitters feeding the merged arrival stream "
        "(default 3; quick 2)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="jobs per submitter (default 24; quick 10)",
    )
    parser.add_argument(
        "--epoch", type=float, default=60.0, metavar="SECONDS", help="epoch length"
    )
    parser.add_argument(
        "--kill",
        type=int,
        nargs="+",
        default=None,
        metavar="TICK",
        help="kill the victim run after these cumulative scheduler ticks "
        "(default: one kill at tick 12; quick: tick 10)",
    )
    parser.add_argument(
        "--no-chaos",
        action="store_true",
        help="disable the chaos plan (no solver-fail or LP-lag windows)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=0.75,
        metavar="SECONDS",
        help="per-epoch LP deadline the watchdog enforces (default 0.75)",
    )
    parser.add_argument(
        "--workdir",
        metavar="DIR",
        default=None,
        help="directory for WAL, snapshots and traces (default: a fresh "
        "temporary directory)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump of the soak to PATH",
    )
    add_live_port_flag(parser)
    return parser


def serve_soak_config(args: argparse.Namespace):
    """The service soak ``repro serve`` runs for parsed ``args``."""
    from repro.resilience import SERVICE, SoakConfig

    quick = args.quick
    horizon_s = (args.hours if args.hours is not None else (2.25 if quick else 2.5)) * 3600.0
    return SoakConfig(
        seeds=(args.seed,),
        targets=(SERVICE,),
        num_machines=args.machines if args.machines is not None else (4 if quick else 6),
        num_submitters=args.submitters
        if args.submitters is not None
        else (2 if quick else 3),
        num_jobs=args.jobs if args.jobs is not None else (10 if quick else 24),
        horizon_s=horizon_s,
        epoch_length=args.epoch,
        # one outage per machine per horizon, on average
        mean_time_to_failure_s=horizon_s,
        # off the 8-tick checkpoint grid, so recovery replays a WAL suffix
        kill_after_epochs=tuple(args.kill)
        if args.kill is not None
        else ((10,) if quick else (12,)),
        chaos=not args.no_chaos,
        epoch_deadline_s=args.deadline,
    )


def _run_serve(argv: Sequence[str]) -> int:
    import tempfile
    from pathlib import Path

    from repro.experiments.report import format_table
    from repro.resilience import run_soak

    args = build_serve_parser().parse_args(argv)
    if not args.sim:
        print(
            "repro serve only supports simulated time: pass --sim "
            "(there is no real cluster behind this reproduction)",
            file=sys.stderr,
        )
        return 2
    config = serve_soak_config(args)
    if args.workdir is not None:
        work_dir = Path(args.workdir)
    else:
        work_dir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    with contextlib.ExitStack() as stack:
        registry = None
        if args.metrics:
            from repro.obs.registry import MetricsRegistry, use_registry

            registry = MetricsRegistry()
            stack.enter_context(use_registry(registry))
        plane = None
        if args.live_port is not None:
            from repro.obs.live import TelemetryError

            try:
                plane = start_live_plane(stack, args.live_port)
            except TelemetryError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        [outcome] = run_soak(config, work_dir, min_sim_hours=args.min_hours, plane=plane)
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    rows = [
        ("sim time", f"{outcome.sim_time_s / 3600.0:.2f} h ({outcome.epochs} epochs)"),
        ("kill/recover cycles", str(outcome.kills)),
        (
            "jobs",
            f"{outcome.submitted} submitted, {outcome.admitted} admitted, "
            f"{outcome.shed} shed, {outcome.completed} completed",
        ),
        (
            "watchdog",
            f"{outcome.deadline_misses} deadline misses, "
            f"{outcome.epochs_degraded:.0f} degraded epochs, "
            f"{outcome.transitions} transitions",
        ),
        (
            "recovery",
            f"{outcome.snapshots} snapshots, {outcome.replayed_records} WAL "
            f"records replayed, max drift {outcome.max_replay_drift:.1e}",
        ),
        (
            "ledger",
            "byte-identical to reference"
            if outcome.ledger_identical
            else "DIFFERS from reference",
        ),
        *(
            [(
                "live plane",
                f"{outcome.rolling_reconciliations} rolling reconciliations, "
                f"max residual {outcome.max_rolling_residual:.1e}",
            )]
            if args.live_port is not None
            else []
        ),
        ("total cost", f"${outcome.total_cost:.4f}"),
        ("makespan", f"{outcome.makespan:.0f} s"),
        (
            "invariants",
            "OK" if outcome.ok else f"{len(outcome.violations)} VIOLATIONS",
        ),
    ]
    print(
        format_table(
            ["stat", "value"],
            rows,
            title=f"serve soak — seed {outcome.seed}, workdir {work_dir}",
        )
    )
    for violation in outcome.violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    return 0 if outcome.ok else 1


def build_diff_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro diff`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="Compare two JSONL traces (written with --trace) for "
        "cost, makespan, critical-path and LP-iteration regressions.  "
        "Exits 1 when a gated stat grew past its threshold.",
    )
    parser.add_argument("base", metavar="BASE", help="baseline trace (JSONL)")
    parser.add_argument("candidate", metavar="CANDIDATE", help="candidate trace (JSONL)")
    parser.add_argument(
        "--threshold-cost",
        type=float,
        metavar="FRAC",
        default=None,
        help="relative total-cost increase gate (default 0.05)",
    )
    parser.add_argument(
        "--threshold-makespan",
        type=float,
        metavar="FRAC",
        default=None,
        help="relative makespan increase gate (default 0.10)",
    )
    parser.add_argument(
        "--threshold-lp-iterations",
        type=float,
        metavar="FRAC",
        default=None,
        help="relative LP-iteration increase gate (default 0.50)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the comparison as JSON to PATH",
    )
    return parser


def _run_diff(argv: Sequence[str]) -> int:
    import json

    from repro.obs.diff import diff_traces
    from repro.obs.export import load_jsonl

    args = build_diff_parser().parse_args(argv)
    thresholds = {}
    if args.threshold_cost is not None:
        thresholds["total_cost"] = args.threshold_cost
    if args.threshold_makespan is not None:
        thresholds["makespan"] = args.threshold_makespan
    if args.threshold_lp_iterations is not None:
        thresholds["lp_iterations"] = args.threshold_lp_iterations
    try:
        base = load_jsonl(args.base)
        candidate = load_jsonl(args.candidate)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"not a JSONL trace ({exc})", file=sys.stderr)
        return 2
    result = diff_traces(base, candidate, thresholds=thresholds)
    print(f"base:      {args.base}")
    print(f"candidate: {args.candidate}")
    print(result.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if result.ok else 1


def build_top_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro top`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live dashboard over a running --live-port endpoint: "
        "service state, epochs/s, cost/s, backlog, SLO budget meters and "
        "solve-latency quantiles, refreshed in place.",
    )
    parser.add_argument(
        "url",
        nargs="?",
        default="http://127.0.0.1:8377",
        metavar="URL",
        help="telemetry endpoint base URL (default http://127.0.0.1:8377)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    parser.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (logs, CI)",
    )
    return parser


def _run_top(argv: Sequence[str]) -> int:
    from repro.obs.top import run_top

    args = build_top_parser().parse_args(argv)
    return run_top(
        args.url,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


#: Subcommands with their own flags (dispatched on ``argv[0]`` before the
#: experiment parser, so they never collide with experiment names).  New
#: subcommands register here instead of special-casing :func:`main`.
def _run_bench(argv: Sequence[str]) -> int:
    from repro.perf.bench import main as bench_main

    return bench_main(argv)


SUBCOMMANDS: Dict[str, Callable[[Sequence[str]], int]] = {
    "report": _run_report,
    "lint": _run_lint,
    "chaos": _run_chaos,
    "bench": _run_bench,
    "diff": _run_diff,
    "serve": _run_serve,
    "top": _run_top,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](list(argv[1:]))
    args = build_parser().parse_args(argv)
    wanted: List[str] = []
    for name in args.experiments:
        if name == "all":
            wanted.extend(COMMANDS)
        elif name in COMMANDS:
            wanted.append(name)
        else:
            print(
                f"unknown experiment {name!r}; choose from: "
                f"{', '.join(COMMANDS)}, all, {', '.join(SUBCOMMANDS)}",
                file=sys.stderr,
            )
            return 2
    with contextlib.ExitStack() as stack:
        previous_backend = install_resilient_solver(args)
        if previous_backend is not None:
            from repro.lp import set_default_backend

            stack.callback(set_default_backend, previous_backend)
        if args.trace:
            from repro.obs.trace import Tracer, use_tracer

            try:
                tracer = stack.enter_context(Tracer.to_path(args.trace))
            except OSError as exc:
                print(f"cannot write trace {args.trace!r}: {exc}", file=sys.stderr)
                return 2
            stack.enter_context(use_tracer(tracer))
        registry = None
        if args.metrics:
            from repro.obs.registry import MetricsRegistry, use_registry

            registry = MetricsRegistry()
            stack.enter_context(use_registry(registry))
        if args.live_port is not None:
            from repro.obs.live import TelemetryError
            from repro.obs.registry import MetricsRegistry, use_registry
            from repro.obs.trace import Tracer, use_tracer

            try:
                plane = start_live_plane(stack, args.live_port)
            except TelemetryError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            if registry is None:
                # no --metrics: scrape a plane-owned ambient registry
                registry_for_plane = MetricsRegistry()
                stack.enter_context(use_registry(registry_for_plane))
                plane.registry = registry_for_plane
            else:
                plane.registry = registry
            if args.trace:
                # the --trace tracer is already ambient; feed its records
                from repro.obs.trace import current_tracer

                plane.attach_tracer(current_tracer())
            else:
                # no --trace: a tap-only tracer (nothing kept, nothing
                # written) so the live trace tail still has a feed
                tap_tracer = stack.enter_context(Tracer.tap_only())
                stack.enter_context(use_tracer(tap_tracer))
                plane.attach_tracer(tap_tracer)
        from repro.experiments.common import share_runs

        stack.enter_context(share_runs())
        code = 0
        for module in dict.fromkeys(COMMANDS[name] for name in wanted):
            experiment = importlib.import_module(f"repro.experiments.{module}")
            if experiment.main(full=args.full, csv_dir=args.csv):
                code = 1
            print()
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    return code


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
