"""Property test: every LP the three paper builders emit is statically clean.

On arbitrary clusters/workloads the shipped formulations must never trip
the model linter, so an ERROR finding from ``repro lint`` (which lints the
builders on one reference input) always indicates a real modelling bug
rather than noise.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.core.assembly import ModelAssembler
from repro.core.model import SchedulingInput
from repro.core.simple_task import identity_placement
from repro.lint import lint_lips_model
from repro.workload.job import DataObject, Job, Workload


@st.composite
def scheduling_input(draw):
    n_machines = draw(st.integers(min_value=1, max_value=4))
    n_jobs = draw(st.integers(min_value=1, max_value=4))
    zones = ["z0", "z1"]
    b = ClusterBuilder(topology=Topology.of(zones), default_uptime=50_000.0)
    for i in range(n_machines):
        b.add_machine(
            f"m{i}",
            ecu=draw(st.sampled_from([1.0, 2.0, 5.0])),
            cpu_cost=draw(st.floats(min_value=1e-6, max_value=1e-4)),
            zone=zones[i % 2],
        )
    cluster = b.build()

    data, jobs = [], []
    for k in range(n_jobs):
        if draw(st.integers(min_value=0, max_value=3)) > 0:
            d = DataObject(
                data_id=len(data),
                name=f"d{len(data)}",
                size_mb=draw(st.floats(min_value=64.0, max_value=2048.0)),
                origin_store=draw(st.integers(min_value=0, max_value=n_machines - 1)),
            )
            data.append(d)
            jobs.append(
                Job(
                    job_id=k,
                    name=f"j{k}",
                    tcp=draw(st.floats(min_value=0.01, max_value=2.0)),
                    data_ids=[d.data_id],
                    num_tasks=draw(st.integers(min_value=1, max_value=32)),
                )
            )
        else:
            jobs.append(
                Job(
                    job_id=k,
                    name=f"j{k}",
                    tcp=0.0,
                    num_tasks=draw(st.integers(min_value=1, max_value=8)),
                    cpu_seconds_noinput=draw(st.floats(min_value=1.0, max_value=1000.0)),
                )
            )
    return SchedulingInput.from_parts(cluster, Workload(jobs=jobs, data=data))


@given(scheduling_input())
@settings(max_examples=25, deadline=None)
def test_simple_task_model_lints_clean(inp):
    assembler = ModelAssembler(
        inp, include_xd=False, fixed_placement=identity_placement(inp)
    )
    assert lint_lips_model(assembler, assembler.build(), "simple-task") == []


@given(scheduling_input())
@settings(max_examples=25, deadline=None)
def test_co_offline_model_lints_clean(inp):
    assembler = ModelAssembler(inp, include_xd=True)
    assert lint_lips_model(assembler, assembler.build(), "co-offline") == []


@given(scheduling_input(), st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=25, deadline=None)
def test_co_online_model_lints_clean(inp, epoch):
    assembler = ModelAssembler(
        inp, include_xd=True, horizon=epoch, include_fake=True, epoch_bandwidth=True
    )
    assert lint_lips_model(assembler, assembler.build(), "co-online") == []
