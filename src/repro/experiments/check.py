"""Reproduction self-check: every paper claim as a fast PASS/FAIL row.

``python -m repro check`` runs reduced-size versions of the paper's
headline claims and prints a scorecard — the one-command answer to "does
this reproduction still reproduce?".  Each check returns (claim, holds,
evidence); failures don't stop the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.experiments.report import format_table


@dataclass
class CheckResult:
    claim: str
    passed: bool
    evidence: str


def _check_table_constants() -> CheckResult:
    from repro.cluster.ec2 import ec2_instance
    from repro.workload.apps import table4_jobs

    w = table4_jobs()
    ratio = ec2_instance("m1.medium").cpu_cost_millicent() / ec2_instance(
        "c1.medium"
    ).cpu_cost_millicent()
    ok = w.total_tasks() == 1608 and 4.0 <= ratio <= 5.5
    return CheckResult(
        "Tables I/III/IV constants (1608 maps; c1/m1 price gap 4-5x)",
        ok,
        f"maps={w.total_tasks()}, gap={ratio:.2f}x",
    )


def _check_break_even() -> CheckResult:
    from repro.experiments.fig1_breakeven import run

    res = run()
    be = res.break_even_ratio
    ok = be["pi"] < be["wordcount"] < be["stress2"] < be["stress1"] < be["grep"]
    return CheckResult(
        "Fig 1: CPU-heavy apps break even at lower price ratios",
        ok,
        f"pi={be['pi']:.2f} < wc={be['wordcount']:.2f} < ... < grep={be['grep']:.2f}",
    )


def _check_savings_grow_with_size() -> CheckResult:
    from repro.experiments.fig5_simulated_savings import run

    res = run(sizes=((200, 10, 10), (600, 50, 50)), seeds=(0,))
    ok = res.reductions[1] > res.reductions[0] > 0
    return CheckResult(
        "Fig 5: cost reduction grows with problem size",
        ok,
        f"{100*res.reductions[0]:.0f}% -> {100*res.reductions[1]:.0f}%",
    )


def _check_lips_cheapest_and_slowest() -> CheckResult:
    from repro.cluster.builder import build_paper_testbed
    from repro.experiments.common import DELAY, LIPS, compare_schedulers
    from repro.workload.apps import table4_jobs

    # 12 nodes need a longer epoch than the 20-node testbed for the LP to
    # pack the cheap nodes (cheap capacity per epoch must cover the queue)
    cluster = build_paper_testbed(12, c1_medium_fraction=0.5, seed=1)
    comp = compare_schedulers(cluster, table4_jobs(), epoch_length=3600.0)
    ok = comp.cost(LIPS) < comp.cost(DELAY) and comp.makespan(LIPS) > comp.makespan(DELAY)
    return CheckResult(
        "Figs 6/7: LiPS is cheapest and slowest vs delay",
        ok,
        f"saves {100*comp.saving_vs(DELAY):.0f}%, +{100*comp.slowdown_vs(DELAY):.0f}% makespan",
    )


def _check_epoch_tradeoff() -> CheckResult:
    from repro.experiments.fig8_epoch_tradeoff import run

    res = run(epochs=(300.0, 1800.0), total_nodes=12)
    ok = res.costs[1] < res.costs[0] and res.exec_times[1] > res.exec_times[0]
    return CheckResult(
        "Fig 8: longer epochs are cheaper but slower",
        ok,
        f"${res.costs[0]:.2f}/{res.exec_times[0]:.0f}s -> ${res.costs[1]:.2f}/{res.exec_times[1]:.0f}s",
    )


def _check_lp_overhead() -> CheckResult:
    import time

    from repro.cluster.builder import build_paper_testbed
    from repro.core.co_online import solve_co_online
    from repro.core.model import SchedulingInput
    from repro.schedulers.lips import build_zone_aggregate
    from repro.workload.apps import table4_jobs

    cluster = build_zone_aggregate(build_paper_testbed(20, c1_medium_fraction=0.5))
    inp = SchedulingInput.from_parts(cluster, table4_jobs(origin_stores=[0, 1, 2]))
    t0 = time.perf_counter()
    solve_co_online(inp, epoch_length=600.0)
    ms = (time.perf_counter() - t0) * 1000.0
    return CheckResult(
        "§VI-A: epoch LP solves in 10s of ms at 1608-task scale",
        ms < 1000.0,
        f"{ms:.1f} ms",
    )


def _check_backends_agree() -> CheckResult:
    from repro.core.co_offline import solve_co_offline
    from repro.core.model import SchedulingInput
    from repro.lp import HighsBackend, SimplexBackend
    from repro.workload.generator import random_workload

    rw = random_workload(60, 4, 4, seed=3, uptime=3600.0)
    inp = SchedulingInput.from_parts(rw.cluster, rw.workload, ms_cost=rw.ms_cost, ss_cost=rw.ss_cost)
    a = solve_co_offline(inp, backend=HighsBackend())
    b = solve_co_offline(inp, backend=SimplexBackend())
    gap = abs(a.objective - b.objective) / max(1.0, abs(a.objective))
    return CheckResult(
        "LP substrate: HiGHS and from-scratch simplex agree",
        gap < 1e-6,
        f"relative gap {gap:.2e}",
    )


CHECKS: List[Callable[[], CheckResult]] = [
    _check_table_constants,
    _check_break_even,
    _check_savings_grow_with_size,
    _check_lips_cheapest_and_slowest,
    _check_epoch_tradeoff,
    _check_lp_overhead,
    _check_backends_agree,
]


def run_checks() -> List[CheckResult]:
    """Execute every claim check; crashes count as failures."""
    results: List[CheckResult] = []
    for check in CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed claim
            results.append(
                CheckResult(
                    claim=check.__name__.replace("_check_", "").replace("_", " "),
                    passed=False,
                    evidence=f"crashed: {exc!r}",
                )
            )
    return results


def main() -> int:
    """Print the scorecard; exit 1 if any claim fails."""
    results = run_checks()
    rows = [
        ("PASS" if r.passed else "FAIL", r.claim, r.evidence) for r in results
    ]
    print(format_table(["", "claim", "evidence"], rows, title="Reproduction self-check"))
    failed = sum(1 for r in results if not r.passed)
    print(f"\n{len(results) - failed}/{len(results)} claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
