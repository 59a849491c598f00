"""HiGHS and the reference simplex agree on Figure 4 epoch models.

The from-scratch simplex is the oracle the default HiGHS backend is
checked against, so the two must reach the same optimum on the models the
online scheduler actually solves: random job subsets on a small
multi-zone cluster, with capacity to spare and with work parked on the
fake node.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.core.assembly import ModelAssembler
from repro.core.co_online import solve_co_online
from repro.core.model import SchedulingInput
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.lp.standard_form import to_standard_form
from repro.workload.job import DataObject, Job, Workload

REL_TOL = 1e-7

#: pool of six jobs the subsets are drawn from; job 5 reads no input
POOL = tuple(range(6))

#: epoch lengths: everything fits vs most work parks on the fake node
AMPLE_EPOCH_S = 2000.0
TIGHT_EPOCH_S = 5.0


def _cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb", "zc"]), default_uptime=10_000.0)
    b.add_machine("a0", ecu=2.0, cpu_cost=5.0e-5, zone="za")
    b.add_machine("a1", ecu=3.0, cpu_cost=4.0e-5, zone="za")
    b.add_machine("b0", ecu=5.0, cpu_cost=1.0e-5, zone="zb")
    b.add_machine("b1", ecu=4.0, cpu_cost=2.0e-5, zone="zb")
    b.add_machine("c0", ecu=1.0, cpu_cost=3.0e-5, zone="zc")
    b.add_machine("c1", ecu=6.0, cpu_cost=6.0e-5, zone="zc")
    return b.build()


def _input_for(cluster, job_ids):
    """SchedulingInput over a subset of the pool, densely renumbered."""
    jobs, data = [], []
    for i, j in enumerate(job_ids):
        if j == 5:
            jobs.append(Job(job_id=i, name="pi", tcp=0.0, cpu_seconds_noinput=900.0))
            continue
        d = len(data)
        data.append(
            DataObject(
                data_id=d,
                name=f"d{j}",
                size_mb=64.0 * (j + 1),
                origin_store=j % cluster.num_stores,
            )
        )
        jobs.append(
            Job(job_id=i, name=f"j{j}", tcp=(10.0 + 7.0 * j) / 64.0, data_ids=[d])
        )
    return SchedulingInput.from_parts(cluster, Workload(jobs=jobs, data=data))


def _solve_both(job_ids, epoch_length):
    """Solve one epoch with each backend; returns (highs, simplex) solutions."""
    inp = _input_for(_cluster(), job_ids)
    config = dict(epoch_length=epoch_length)
    return (
        solve_co_online(inp, **config, backend=HighsBackend()),
        solve_co_online(inp, **config, backend=SimplexBackend()),
    )


def _assert_objectives_agree(highs, simplex):
    scale = max(1.0, abs(highs.objective))
    assert abs(highs.objective - simplex.objective) <= REL_TOL * scale, (
        highs.objective,
        simplex.objective,
    )


@given(
    job_ids=st.sets(st.sampled_from(POOL), min_size=1, max_size=len(POOL)),
    tight=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_backends_agree_on_random_epoch_models(job_ids, tight):
    highs, simplex = _solve_both(
        tuple(sorted(job_ids)), TIGHT_EPOCH_S if tight else AMPLE_EPOCH_S
    )
    _assert_objectives_agree(highs, simplex)


@pytest.mark.parametrize(
    "epoch_length, parks", [(AMPLE_EPOCH_S, False), (TIGHT_EPOCH_S, True)]
)
def test_full_pool_agrees_with_and_without_fake_load(epoch_length, parks):
    highs, simplex = _solve_both(POOL, epoch_length)
    _assert_objectives_agree(highs, simplex)
    # the two epoch lengths really do cover both sides of the fake node
    assert bool(highs.fake.sum() > 1e-6) is parks
    assert simplex.fake.sum() == pytest.approx(highs.fake.sum(), abs=1e-6)


def test_full_pool_model_is_past_the_small_basis_range():
    """The full pool builds a basis well beyond 128 standard-form rows."""
    inp = _input_for(_cluster(), POOL)
    asm = ModelAssembler(
        inp,
        include_xd=True,
        horizon=AMPLE_EPOCH_S,
        include_fake=True,
        epoch_bandwidth=True,
    ).build()
    assert to_standard_form(asm).a.shape[0] > 128
