"""``python -m repro bench`` — the epoch-LP benchmark and its certificate.

Times the default HiGHS backend on two deterministic scenarios:

* **epoch loop** — the epoch controller on the Figure 8 testbed shape
  (20 paper machines, two long jobs sized to span about ten epochs);
* **scaling row** — the same loop at ``SCALING_MACHINES`` (1000)
  machines with scarce stores, then the block-level Hadoop simulator
  under LiPS: seconds per epoch solve, and simulator events per wall
  second over the whole run and without its LP solves.

The gate proves every model HiGHS solves in the bench optimal with
:func:`repro.lp.validation.certify`, from the solver's own duals and
without a second solve.  It fails when any solve is not optimal, any
certificate fails, or no model was solved at all.

Results are written as JSON (schema ``repro.bench/2``, documented in the
README's Benchmarks section), appended as two ``repro.bench-history/2``
rows (the loop and the scaling row) and mirrored into ``bench.*`` gauges
when a metrics registry is active.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cluster.builder import ClusterBuilder, build_paper_testbed, paper_topology
from repro.cluster.ec2 import ec2_instance
from repro.core.epoch import EpochController
from repro.lp.scipy_backend import HIGHS_VERSION, HighsBackend
from repro.lp.validation import certify
from repro.obs.registry import current_registry
from repro.workload.job import DataObject, Job, Workload

#: JSON schema identifier written into every benchmark file
SCHEMA = "repro.bench/2"

#: JSONL schema identifier for the append-only history file
HISTORY_SCHEMA = "repro.bench-history/2"

#: machine count of the scaling row
SCALING_MACHINES = 1000


def git_sha() -> Optional[str]:
    """The source checkout's commit (``-dirty`` if modified), or None.

    None when git or a work tree is unavailable, e.g. in an installed copy.
    """
    import subprocess
    from pathlib import Path

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_facts() -> dict:
    """What a history row must carry to be compared like with like."""
    import os
    import platform

    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs": HIGHS_VERSION,
        "git_sha": git_sha(),
    }


def history_rows(doc: dict) -> list:
    """The document's two history JSONL rows: the loop and the scaling row.

    Both carry one real UTC timestamp and the host facts, so an
    append-only ``BENCH_history.jsonl`` charts performance over time
    without retaining full documents; consumers filter on ``kind``.
    """
    import datetime

    ts = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    host = host_facts()
    cert = doc["certificate"]
    bench = {
        "machines": doc["scenario"]["machines"],
        "epochs": doc["highs"]["epochs"],
        "highs_wall_s": doc["highs"]["wall_s"],
        "certified_models": cert["certified"],
        "certify_wall_s": cert["wall_s"],
        "gate_ok": doc["gate"]["ok"],
    }
    return [
        {"schema": HISTORY_SCHEMA, "ts": ts, "kind": kind, "host": host, **row}
        for kind, row in (("bench", bench), ("scaling", doc["scaling"]))
    ]


def append_history(doc: dict, path) -> list:
    """Append the document's history rows to the JSONL file at ``path``."""
    rows = history_rows(doc)
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return rows


def build_scenario() -> Tuple[object, Workload, float, dict]:
    """The benchmark scenario: ``(cluster, workload, epoch_length, meta)``.

    Two jobs sized so the workload spans several epochs of the paper
    testbed, so the loop solves one epoch LP per epoch.
    """
    machines = 20
    epochs_target = 10
    epoch_length = 60.0
    cluster = build_paper_testbed(machines, c1_medium_fraction=0.5, seed=0)
    capacity = float(np.sum(cluster.throughput_vector())) * epoch_length
    total_cpu = capacity * epochs_target * 0.9
    jobs, data = [], []
    for i in range(2):
        size_mb = 200.0
        cpu = total_cpu / 2
        data.append(
            DataObject(
                data_id=i,
                name=f"d{i}",
                size_mb=size_mb,
                origin_store=i % cluster.num_stores,
            )
        )
        jobs.append(
            Job(job_id=i, name=f"j{i}", tcp=cpu / size_mb, data_ids=[i], num_tasks=32)
        )
    meta = {
        "machines": machines,
        "jobs": len(jobs),
        "epoch_length_s": epoch_length,
        "epochs_target": epochs_target,
    }
    return cluster, Workload(jobs=jobs, data=data), epoch_length, meta


def _block_testbed(machines: int, n_stores: int, seed: int = 0):
    """A paper-style testbed whose data stores sit on only ``n_stores`` nodes.

    ``build_paper_testbed`` co-locates a store with *every* machine, which
    makes the online model's transfer-variable count grow with
    ``machines**2`` — fine at testbed sizes, needlessly huge for the
    scaling profile.  Concentrating the stores keeps the model at
    ``O(stores * machines)``.
    """
    rng = np.random.default_rng(seed)
    builder = ClusterBuilder(topology=paper_topology())
    zones = builder.topology.zone_names()
    kinds = ["c1.medium"] * (machines // 2) + ["m1.medium"] * (machines - machines // 2)
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        it = ec2_instance(kind)
        builder.add_machine(
            name=f"{it.name}-{i:03d}",
            ecu=it.ecu,
            cpu_cost=it.cpu_cost_per_ecu_second(float(rng.uniform())),
            zone=zones[i % len(zones)],
            map_slots=max(1, it.cpus * 2),
            memory_gb=it.memory_gb,
            instance_type=it.name,
            with_store=(i < n_stores),
            store_capacity_mb=it.storage_gb * 1024,
        )
    return builder.build()


def build_block_scenario(
    machines: int, n_jobs: int = 8, epochs_target: int = 3, util: float = 0.9
) -> Tuple[object, Workload, float, dict]:
    """An epoch scenario at ``machines`` nodes with one store per job.

    ``n_jobs`` jobs each read their own data object, placed on ``n_jobs``
    stores.  Total work is ``util`` of cluster capacity over
    ``epochs_target`` epochs.
    """
    epoch_length = 60.0
    cluster = _block_testbed(machines, n_stores=n_jobs)
    capacity = float(np.sum(cluster.throughput_vector())) * epoch_length
    total_cpu = capacity * epochs_target * util
    jobs, data = [], []
    for i in range(n_jobs):
        size_mb = 200.0
        data.append(
            DataObject(
                data_id=i,
                name=f"d{i}",
                size_mb=size_mb,
                origin_store=i % cluster.num_stores,
            )
        )
        jobs.append(
            Job(
                job_id=i,
                name=f"j{i}",
                tcp=(total_cpu / n_jobs) / size_mb,
                data_ids=[i],
                num_tasks=32,
            )
        )
    meta = {
        "machines": machines,
        "jobs": n_jobs,
        "stores": n_jobs,
        "epoch_length_s": epoch_length,
        "epochs_target": epochs_target,
        "utilization": util,
    }
    return cluster, Workload(jobs=jobs, data=data), epoch_length, meta


class CapturingHighs(HighsBackend):
    """The default backend, keeping every model it solves with its result.

    The bench certifies them after the timed runs, so the timings hold
    only the solves.
    """

    def __init__(self) -> None:
        super().__init__()
        self.solves: list = []

    def solve_assembled(self, asm):
        result = super().solve_assembled(asm)
        self.solves.append((asm, result))
        return result


def _timed_epoch_loop(cluster, workload, epoch_length, backend) -> Tuple[float, int]:
    """Run the epoch loop once; returns (wall_s, epochs solved)."""
    controller = EpochController(cluster, epoch_length, backend=backend)
    t0 = time.perf_counter()
    result = controller.run(workload)
    return time.perf_counter() - t0, len(result.reports)


def _bench_scaling(machines: int, backend) -> dict:
    """Epoch solve time and simulator event throughput at ``machines`` nodes.

    Runs the block scenario's epoch loop, then the block-level Hadoop
    simulator under LiPS, and reports seconds per epoch solve plus
    simulator events per wall second, both over the whole run and over
    its simulator-only part (the wall time minus the in-simulation LP
    solves).
    """
    from repro.hadoop.sim import HadoopSimulator, SimConfig
    from repro.schedulers.lips import LipsScheduler

    cluster, workload, epoch_length, _meta = build_block_scenario(
        machines, n_jobs=8, epochs_target=2
    )
    solve_wall, epochs = _timed_epoch_loop(cluster, workload, epoch_length, backend)
    sim = HadoopSimulator(
        cluster,
        workload,
        LipsScheduler(epoch_length=epoch_length, backend=backend),
        SimConfig(placement_seed=0, speculative=False),
    )
    t0 = time.perf_counter()
    sim.run()
    sim_wall = time.perf_counter() - t0
    sim_only = max(0.0, sim_wall - sim.metrics.lp_solve_seconds)
    events = sim.events.processed
    return {
        "machines": machines,
        "epochs": epochs,
        "epoch_solve_s": solve_wall / max(1, epochs),
        "solve_wall_s": solve_wall,
        "sim_wall_s": sim_wall,
        "events": events,
        "events_per_s": events / sim_wall if sim_wall > 0 else 0.0,
        "sim_only_s": sim_only,
        "sim_only_events_per_s": events / sim_only if sim_only > 0 else 0.0,
    }


def certify_solves(solves: Sequence[tuple]) -> dict:
    """Certify every ``(asm, result)`` pair; the ``certificate`` section."""
    t0 = time.perf_counter()
    certs = [certify(asm, result) for asm, result in solves]
    wall = time.perf_counter() - t0
    return {
        "models": len(certs),
        "certified": sum(c.ok for c in certs),
        "non_optimal": sum(not result.is_optimal for _, result in solves),
        "wall_s": wall,
        "max_gap": max((c.gap for c in certs), default=0.0),
        "max_primal_residual": max((c.primal_residual for c in certs), default=0.0),
        "max_dual_residual": max((c.dual_residual for c in certs), default=0.0),
    }


def gate(certificate: dict) -> dict:
    """The bench gate over a ``certificate`` section.

    Passes only when at least one model was solved, every solve was
    optimal and every optimum is certified: a bench that solved nothing
    proves nothing.
    """
    checks = {
        "models_solved": certificate["models"] > 0,
        "all_optimal": certificate["non_optimal"] == 0,
        "all_certified": certificate["certified"] == certificate["models"],
    }
    return {"ok": all(checks.values()), "checks": checks}


def run_bench() -> dict:
    """Run the benchmark; returns the ``repro.bench/2`` document."""
    backend = CapturingHighs()
    cluster, workload, epoch_length, meta = build_scenario()
    wall, epochs = _timed_epoch_loop(cluster, workload, epoch_length, backend)
    scaling = _bench_scaling(SCALING_MACHINES, backend)
    certificate = certify_solves(backend.solves)
    doc = {
        "schema": SCHEMA,
        "scenario": meta,
        "highs": {"wall_s": wall, "epochs": epochs},
        "certificate": certificate,
        "scaling": scaling,
        "gate": gate(certificate),
    }
    registry = current_registry()
    if registry is not None:
        registry.gauge("bench.highs_wall_s", help="HiGHS epoch loop wall").set(wall)
        registry.gauge(
            "bench.certify_wall_s", help="certificate wall over every bench model"
        ).set(certificate["wall_s"])
    return doc


def build_bench_parser() -> argparse.ArgumentParser:
    """Parser for the ``python -m repro bench`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark the HiGHS epoch LP: time the 20-machine "
        "epoch loop and one 1000-machine scaling row, and certify every "
        "model HiGHS solved optimal from its own duals.  Writes a "
        "repro.bench/2 JSON document and exits 1 when the gate fails.",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_epoch.json",
        help="output JSON path (default BENCH_epoch.json)",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default="BENCH_history.jsonl",
        help="append two timestamped repro.bench-history/2 rows to this "
        "JSONL file (default BENCH_history.jsonl; --no-history disables)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the history append",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of the benchmarked epoch "
        "loops to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a JSON metrics-registry dump (bench.* gauges included) "
        "to PATH",
    )
    return parser


def main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro bench``."""
    import contextlib

    args = build_bench_parser().parse_args(list(argv))
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
        doc = run_bench()
        if registry is not None:
            registry.write_json(args.metrics)
            print(f"wrote {args.metrics}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not args.no_history:
        append_history(doc, args.history)
        print(f"appended {args.history}")
    cert, row = doc["certificate"], doc["scaling"]
    print(
        f"epoch loop ({doc['scenario']['machines']} machines, "
        f"{doc['highs']['epochs']} epochs): highs {doc['highs']['wall_s']:.2f}s"
    )
    print(
        f"certificate: {cert['certified']}/{cert['models']} HiGHS models "
        f"certified in {cert['wall_s']:.3f}s (worst gap {cert['max_gap']:.1e}, "
        f"primal residual {cert['max_primal_residual']:.1e}, "
        f"dual residual {cert['max_dual_residual']:.1e})"
    )
    print(
        f"scaling[{row['machines']} machines]: "
        f"epoch solve {row['epoch_solve_s']:.3f}s, "
        f"{row['events']} events at {row['events_per_s']:.0f} ev/s "
        f"({row['sim_only_events_per_s']:.0f} ev/s without LP solves)"
    )
    print(f"wrote {args.out}")
    if not doc["gate"]["ok"]:
        failed = [k for k, v in doc["gate"]["checks"].items() if not v]
        print(f"bench gate FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0
