"""Golden schedules: FIFO, delay and LiPS, pinned.

Each case replays a small seeded SWIM-style workload on the 20-node paper
testbed with one machine that fails and recovers, one that is lost for good
and, on odd seeds, chaos read faults (so failed reads are re-queued with a
backoff).  The baseline schedulers run with speculation on; LiPS runs with
it off, as in the paper.  The golden file freezes each run's cost, makespan
and a sha256 over its full attempt history, so any change to which task a
scheduler launches, where, when or from which replica shows up as a drift
here.

Regenerate (only for an intended schedule change) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/schedulers/test_golden_schedules.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
from pathlib import Path
from typing import Optional

import pytest

from repro.cluster.builder import build_paper_testbed
from repro.hadoop.failures import FailurePlan
from repro.hadoop.history import AttemptRecord
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.resilience.chaos import ChaosPlan, ReadFaultEvent
from repro.schedulers import DelayScheduler, FifoScheduler, LipsScheduler
from repro.workload.swim import SwimConfig, synthesize_facebook_day

GOLDEN = Path(__file__).parent / "golden_schedules.json"

SEEDS = tuple(range(6))
NODES = 20
JOBS = 40
DAY_S = 3600.0
SCHEDULERS = {
    "Delay": DelayScheduler,
    "FIFO": FifoScheduler,
    "LiPS": lambda: LipsScheduler(epoch_length=300.0),
}
#: plan-driven schedulers run without speculation, as the paper runs LiPS
NO_SPECULATION = frozenset({"LiPS"})
#: job-size classes shrunk so a case runs in a fraction of a second
CLASSES = (
    ("interactive", 0.6, (1, 8)),
    ("medium", 0.3, (8, 60)),
    ("long", 0.1, (60, 200)),
)


def build_case(
    seed: int, scheduler: str, speculative: Optional[bool] = None
) -> HadoopSimulator:
    """One matrix case with job history recorded, set up but not run.

    ``speculative`` defaults to the matrix setting: on for the baseline
    schedulers, off for LiPS.
    """
    cluster = build_paper_testbed(NODES, c1_medium_fraction=0.25, seed=seed)
    workload = synthesize_facebook_day(
        SwimConfig(
            num_jobs=JOBS,
            duration_s=DAY_S,
            classes=CLASSES,
            num_origin_stores=NODES,
            seed=seed,
        )
    )
    # fail machines just after the two largest jobs arrive, so the outages
    # kill running attempts and re-queue their tasks
    largest = sorted(workload.jobs, key=lambda j: (-j.num_tasks, j.job_id))
    failures = FailurePlan()
    t_fail = largest[0].arrival_time + 20.0
    failures.add(seed % NODES, t_fail, t_fail + 600.0)
    t_lost = largest[1].arrival_time + 20.0
    failures.add((seed + 7) % NODES, t_lost)  # never recovers
    chaos = None
    if seed % 2:
        chaos = ChaosPlan(
            read_faults=[
                ReadFaultEvent(
                    store_id=(seed + 3 * k) % NODES, start=400.0 * k, end=400.0 * k + 600.0
                )
                for k in range(1, 6)
            ],
            backoff_jitter=0.25,
            backoff_seed=seed,
        )
    if speculative is None:
        speculative = scheduler not in NO_SPECULATION
    return HadoopSimulator(
        cluster,
        workload,
        SCHEDULERS[scheduler](),
        SimConfig(speculative=speculative, placement_seed=seed, record_history=True),
        failures=failures,
        chaos=chaos,
    )


def run_case(seed: int, scheduler: str) -> HadoopSimulator:
    """Run one matrix case; returns the simulator."""
    sim = build_case(seed, scheduler)
    sim.run()
    return sim


def _plain(value):
    """A record field as a builtin, so its repr does not depend on numpy."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value)


#: where attempt records held an ``is_reduce`` flag (always False) when the
#: golden digests were recorded; the hashed tuple keeps that layout
_RETIRED_FLAG_AT = [f.name for f in dataclasses.fields(AttemptRecord)].index("outcome") + 1


def fingerprint(sim: HadoopSimulator) -> dict:
    """Cost, makespan and a sha256 over every attempt record, in order."""
    digest = hashlib.sha256()
    for record in sim.history.records:
        fields = [_plain(v) for v in dataclasses.astuple(record)]
        fields.insert(_RETIRED_FLAG_AT, False)
        digest.update(repr(tuple(fields)).encode())
        digest.update(b"\n")
    return {
        "cost": repr(float(sim.metrics.total_cost)),
        "makespan": repr(float(sim.metrics.makespan)),
        "attempts": len(sim.history.records),
        "history_sha256": digest.hexdigest(),
    }


def case_id(seed: int, scheduler: str) -> str:
    """Key of one case in the golden file."""
    return f"{scheduler}-seed{seed}"


CASES = [(seed, name) for seed in SEEDS for name in SCHEDULERS]


@pytest.mark.parametrize("seed,scheduler", CASES, ids=[case_id(s, n) for s, n in CASES])
def test_schedule_matches_golden(seed, scheduler):
    got = fingerprint(run_case(seed, scheduler))
    key = case_id(seed, scheduler)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[key] = got
        GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
        pytest.skip(f"regenerated {key} in {GOLDEN.name}")
    assert got == json.loads(GOLDEN.read_text())[key]


def test_matrix_exercises_the_requeue_paths():
    """The matrix is only a guard if failures, chaos and speculation fire."""
    sims = [run_case(seed, "Delay") for seed in (0, 1)]
    for sim in sims:
        assert sim.metrics.machine_failures == 2
        assert sim.metrics.failed_attempts > 0
        assert sim.metrics.speculative_attempts > 0
    assert sims[1].metrics.chaos_faults_injected > 0
    for name in sorted(NO_SPECULATION):
        sims = [run_case(seed, name) for seed in (0, 1)]
        for sim in sims:
            assert sim.metrics.machine_failures == 2
            assert sim.metrics.failed_attempts > 0
            assert sim.metrics.speculative_attempts == 0
            assert sim.metrics.moved_mb > 0
        assert sims[1].metrics.chaos_faults_injected > 0
