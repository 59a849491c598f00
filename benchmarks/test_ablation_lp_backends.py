"""Ablation bench: HiGHS vs the from-scratch simplex on a scheduling LP.

DESIGN.md lists the LP backend as a swappable design choice; this bench
solves the same offline co-scheduling model with both and checks they agree
(same optimum), while pytest-benchmark reports the speed gap.
"""

import pytest

from repro.cluster.builder import build_paper_testbed
from repro.core.co_offline import solve_co_offline
from repro.core.model import SchedulingInput
from repro.lp import HighsBackend, SimplexBackend
from repro.workload.generator import random_workload


def _small_input():
    rw = random_workload(60, 4, 4, seed=3, uptime=3600.0)
    return SchedulingInput.from_parts(
        rw.cluster, rw.workload, ms_cost=rw.ms_cost, ss_cost=rw.ss_cost
    )


@pytest.mark.parametrize("backend_cls", [HighsBackend, SimplexBackend])
def test_ablation_lp_backend(benchmark, backend_cls):
    inp = _small_input()
    sol = benchmark.pedantic(
        solve_co_offline, args=(inp,), kwargs={"backend": backend_cls()}, rounds=1, iterations=1
    )
    # both backends must land on the same optimal cost
    reference = solve_co_offline(inp, backend=HighsBackend())
    assert abs(sol.objective - reference.objective) <= 1e-6 * max(1.0, abs(reference.objective))


def test_ablation_epoch_vs_offline(benchmark, capsys):
    """Online epoching is never cheaper than the offline optimum."""
    from repro.core.co_online import solve_co_online
    from repro.workload.apps import table4_jobs

    cluster = build_paper_testbed(12, c1_medium_fraction=0.5, uptime=50000.0)
    w = table4_jobs(origin_stores=list(range(12)))
    inp = SchedulingInput.from_parts(cluster, w)
    offline = solve_co_offline(inp)
    online = benchmark.pedantic(
        solve_co_online,
        args=(inp,),
        kwargs={"epoch_length": 900.0},
        rounds=1,
        iterations=1,
    )
    real_online = online.cost_breakdown(inp).real_total
    offline_cost = offline.cost_breakdown(inp).real_total
    with capsys.disabled():
        print(
            f"\nablation: offline optimum ${offline_cost:.4f} vs "
            f"single-epoch online real cost ${real_online:.4f} "
            f"(fake residual {online.fake.sum():.2f} jobs)"
        )
    # the offline LP lower-bounds any schedule of the scheduled portion
    assert offline_cost <= real_online + offline_cost * 1e-6 + 1e-9 or online.fake.sum() > 0
