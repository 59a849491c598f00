"""Bench: the paper's scheduler-overhead claim.

Section VI-A: "for problems involving thousands of tasks, its execution
time was almost negligible (10s of ms) especially when compared to job
durations (10s of mins)".  This bench solves one online-epoch LP at the
paper's task scale and asserts the solve stays in the tens-of-milliseconds
regime (generous factor for slow CI machines).
"""

import time

from repro.cluster.builder import build_paper_testbed
from repro.core.co_online import solve_co_online
from repro.core.model import SchedulingInput
from repro.schedulers.lips import build_zone_aggregate
from repro.workload.apps import table4_jobs


def test_epoch_lp_overhead(run_once, capsys):
    """The LiPS per-epoch solve on the 1608-task Table IV queue."""
    cluster = build_zone_aggregate(build_paper_testbed(20, c1_medium_fraction=0.5))
    w = table4_jobs(origin_stores=[0, 1, 2])  # data starts round-robin per zone
    inp = SchedulingInput.from_parts(cluster, w)

    def solve():
        return solve_co_online(inp, epoch_length=600.0)

    t0 = time.perf_counter()
    sol = run_once(solve)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"\n  epoch LP: {inp.num_jobs} jobs / {w.total_tasks()} tasks, "
            f"{cluster.num_machines} machines x {cluster.num_stores} zone-stores "
            f"-> solved in {elapsed*1000:.1f} ms (paper: 10s of ms)"
        )
    assert sol is not None
    # "almost negligible": well under a second even on slow machines
    assert elapsed < 1.0


def test_simulated_run_overhead_share(run_once, capsys):
    """Across a full simulated run, LP time is negligible vs simulated work."""
    from repro.hadoop.sim import HadoopSimulator, SimConfig
    from repro.schedulers import LipsScheduler

    cluster = build_paper_testbed(20, c1_medium_fraction=0.5)
    sim = HadoopSimulator(
        cluster,
        table4_jobs(),
        LipsScheduler(epoch_length=900.0),
        SimConfig(placement_seed=7, speculative=False),
    )
    res = run_once(sim.run)
    m = res.metrics
    per_solve_ms = 1000.0 * m.lp_solve_seconds / max(1, m.lp_solves)
    with capsys.disabled():
        print(
            f"\n  {m.lp_solves} epoch solves, {per_solve_ms:.1f} ms each; "
            f"simulated makespan {m.makespan:.0f} s"
        )
    assert per_solve_ms < 500.0
    # LP wall time is orders of magnitude below the simulated job durations
    assert m.lp_solve_seconds < m.makespan / 100.0
