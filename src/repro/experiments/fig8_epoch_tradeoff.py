"""Figure 8 — the epoch-length cost/performance tradeoff.

Same testbed as Figure 6(iii) (20 nodes, 50% c1.medium, Table IV jobs); the
epoch length sweeps up.  The paper: "as we increase the epoch length the
cost decreases, at the expense of higher execution time" — longer epochs let
the LP concentrate work on the cheapest nodes (cheap but slow), shorter
epochs force parallelism (fast but pricey).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.builder import build_paper_testbed
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.experiments.common import LipsFactory, shared
from repro.experiments.parallel import pool_size, run_tasks
from repro.experiments.report import format_table
from repro.workload.apps import table4_jobs

PAPER_EPOCHS: Sequence[float] = (300.0, 600.0, 900.0, 1200.0, 1800.0, 2400.0)


@dataclass
class Fig8Result:
    epochs: Sequence[float]
    costs: List[float]  # total $ per epoch setting (Fig 8b)
    exec_times: List[float]  # makespan seconds (Fig 8a)


def _fig8_point(seeded_task):
    """Worker: run LiPS for one epoch length on the shared testbed."""
    cluster, workload, e, placement_seed, backend = seeded_task
    sim = HadoopSimulator(
        cluster,
        workload,
        LipsFactory(epoch_length=e, backend=backend)(),
        SimConfig(placement_seed=placement_seed, speculative=False),
    )
    m = sim.run().metrics
    return m.total_cost, m.makespan


def run(
    epochs: Sequence[float] = PAPER_EPOCHS,
    total_nodes: int = 20,
    c1_fraction: float = 0.5,
    seed: int = 0,
    placement_seed: int = 7,
    backend: Optional[object] = None,
    workload=None,
    workers: int = 0,
) -> Fig8Result:
    """Run LiPS per epoch length on the Fig 6(iii) testbed.

    ``workers`` fans the epoch lengths out over a process pool; every point
    carries its explicit seeds, so results match the serial sweep.
    """
    cluster = build_paper_testbed(total_nodes, c1_medium_fraction=c1_fraction, seed=seed)
    w = workload if workload is not None else table4_jobs()
    seeded_tasks = [(cluster, w, e, placement_seed, backend) for e in epochs]
    points = run_tasks(_fig8_point, seeded_tasks, workers)
    return Fig8Result(
        epochs=list(epochs),
        costs=[p[0] for p in points],
        exec_times=[p[1] for p in points],
    )


def run_at(full: bool = False) -> Fig8Result:
    """The six-epoch sweep, pooled; it is already the paper's size."""
    return run(workers=pool_size())


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the Figure 8 sweep."""
    res = shared(run_at, full)
    rows = [
        (f"{e:.0f}s", f"{t:.0f}", f"{c:.4f}")
        for e, t, c in zip(res.epochs, res.exec_times, res.costs)
    ]
    print(
        format_table(
            ["epoch", "exec time s (8a)", "total $ (8b)"],
            rows,
            title="Figure 8 — epoch length: cost falls, execution time rises",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
