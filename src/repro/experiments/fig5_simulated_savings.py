"""Figure 5 — simulated average cost reduction vs problem size.

The paper's analytic simulation: draw a fully random problem (costs in the
Figure 5 caption ranges), solve the offline co-scheduling LP for the optimal
dollar cost, and compare with the "default" schedule — blocks shuffled
randomly over the cluster and every task run data-local, which "is the same
as the ideal delay scheduler".  Cost reduction grows with problem size
(paper: ~30% at J:200/S:10/M:10 to ~70% at J:1000/S:100/M:100) because a
bigger cluster gives the LP more freedom to chase cheap cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.co_offline import solve_co_offline
from repro.core.model import SchedulingInput
from repro.experiments.common import shared
from repro.experiments.export import export_all
from repro.experiments.parallel import pool_size, run_tasks
from repro.experiments.report import format_table
from repro.workload.generator import RandomWorkload, random_workload

#: the paper's x-axis: (total tasks J, stores S, machines M)
PAPER_SIZES: Tuple[Tuple[int, int, int], ...] = (
    (200, 10, 10),
    (400, 25, 25),
    (600, 50, 50),
    (800, 75, 75),
    (1000, 100, 100),
)

#: the one reduced size, shared by ``repro fig5`` and its claim; the
#: smaller (J:100, S:5, M:5) point saves nothing, so the sweep starts at
#: the paper's first size
REDUCED_SIZES: Tuple[Tuple[int, int, int], ...] = PAPER_SIZES[:3]

#: capacity window per machine.  The sweep keeps uptime fixed while the
#: machine count grows, so capacity binds hard at the small end (forcing the
#: LP onto expensive nodes) and relaxes at the large end — the mechanism
#: behind the paper's 30% -> 70% reduction growth.  300 s reproduces that
#: range with the caption's cost distributions.
SWEEP_UPTIME_S: float = 300.0


def ideal_local_cost(rw: RandomWorkload, seed: int = 0) -> float:
    """Cost of the shuffled-blocks, 100%-data-local 'default' schedule.

    Blocks land uniformly at random on machine-co-located stores; each task
    runs on the machine hosting its block, so the only cost is execution at
    that machine's CPU price.
    """
    rng = np.random.default_rng(seed)
    hosts = [
        s.colocated_machine for s in rw.cluster.stores if s.colocated_machine is not None
    ]
    if not hosts:
        raise ValueError("cluster has no machine-co-located stores")
    prices = rw.cluster.cpu_cost_vector()
    total = 0.0
    for job in rw.workload.jobs:
        cpu = job.total_cpu_seconds(rw.workload.data)
        # spread the job's work uniformly over randomly chosen hosts, one
        # draw per task (block)
        draws = rng.choice(hosts, size=job.num_tasks)
        total += float(np.mean(prices[draws])) * cpu
    return total


@dataclass
class Fig5Result:
    sizes: Sequence[Tuple[int, int, int]]
    lp_costs: List[float]
    default_costs: List[float]
    reductions: List[float]  # fraction saved by LiPS


def _fig5_point(seeded_task) -> Tuple[float, float]:
    """Worker: one (size, seed) sweep point -> (lp cost, default cost)."""
    j, s, m, seed, uptime, backend = seeded_task
    rw = random_workload(j, s, m, seed=seed, uptime=uptime)
    inp = SchedulingInput.from_parts(
        rw.cluster, rw.workload, ms_cost=rw.ms_cost, ss_cost=rw.ss_cost
    )
    sol = solve_co_offline(inp, backend=backend)
    return sol.cost_breakdown(inp).real_total, ideal_local_cost(rw, seed=seed + 1000)


def run(
    sizes: Sequence[Tuple[int, int, int]] = PAPER_SIZES,
    seeds: Sequence[int] = (0, 1),
    backend: object = None,
    uptime: float = SWEEP_UPTIME_S,
    workers: int = 0,
) -> Fig5Result:
    """Average LP-vs-ideal-local cost reduction over sizes and seeds.

    ``workers`` fans the (size, seed) grid out over a process pool; each
    point is solved from its explicit seed, so results match the serial run.
    """
    seeded_tasks = [
        (j, s, m, seed, uptime, backend) for (j, s, m) in sizes for seed in seeds
    ]
    points = run_tasks(_fig5_point, seeded_tasks, workers)
    lp_costs, default_costs, reductions = [], [], []
    for i, _size in enumerate(sizes):
        chunk = points[i * len(seeds) : (i + 1) * len(seeds)]
        lp_costs.append(sum(p[0] for p in chunk) / len(seeds))
        default_costs.append(sum(p[1] for p in chunk) / len(seeds))
        reductions.append(1.0 - lp_costs[-1] / default_costs[-1] if default_costs[-1] else 0.0)
    return Fig5Result(
        sizes=list(sizes),
        lp_costs=lp_costs,
        default_costs=default_costs,
        reductions=reductions,
    )


def run_at(full: bool = False) -> Fig5Result:
    """Figure 5 at its reduced size, or at the paper's five with ``full``."""
    return run(sizes=PAPER_SIZES if full else REDUCED_SIZES, workers=pool_size())


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the Figure 5 table (and its CSV into ``csv_dir``)."""
    res = shared(run_at, full)
    rows = []
    for (j, s, m), lp, d, r in zip(res.sizes, res.lp_costs, res.default_costs, res.reductions):
        rows.append((f"J:{j} S:{s} M:{m}", f"{lp:.4f}", f"{d:.4f}", f"{100*r:.1f}%"))
    print(
        format_table(
            ["problem size", "LiPS $", "default $", "cost reduction"],
            rows,
            title="Figure 5 — average cost reduction vs problem size "
            "(paper: ~30% smallest, ~70% largest)",
        )
    )
    if csv_dir:
        for path in export_all(csv_dir, fig5=res):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
