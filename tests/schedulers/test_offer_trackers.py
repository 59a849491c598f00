"""The offer filter's premise: a tracker LiPS leaves out would decline.

Without speculation, ``HadoopSimulator._offer_all_idle`` offers only the
trackers ``LipsScheduler.offer_trackers`` returns: those whose machine holds
a non-empty plan.  That is safe only if every other offer is a decline that
changes nothing.  These seeded LiPS runs (the golden matrix cases: machine
failures, and chaos read faults on odd seeds) probe the premise at every
``_offer_all_idle``: each alive tracker with a free map slot that was left
out is offered anyway and must get ``None``, with the plans, ready bounds
and planned keys unchanged.  The returned list must
equal a brute-force scan of the non-empty plans, and the probed run must
still match its golden schedule.
"""

from __future__ import annotations

import json

import pytest

from tests.schedulers.test_golden_schedules import (
    GOLDEN,
    NO_SPECULATION,
    SEEDS,
    build_case,
    case_id,
    fingerprint,
)

CASES = [(seed, name) for seed in SEEDS for name in sorted(NO_SPECULATION)]


def plan_state(sched) -> tuple:
    """Everything a declined offer must leave alone."""
    plans = {m: [id(entry) for entry in plan] for m, plan in sched.plans.items()}
    return plans, dict(sched._ready_at), set(sched._planned_keys)


@pytest.mark.parametrize("seed,scheduler", CASES, ids=[case_id(s, n) for s, n in CASES])
def test_left_out_trackers_decline_without_side_effects(seed, scheduler):
    sim = build_case(seed, scheduler)
    sched = sim.scheduler
    offer_all_idle = sim._offer_all_idle
    probes = []

    def probed_offer_all_idle() -> None:
        offered = sched.offer_trackers(sim.trackers)
        brute_force = [m for m in sorted(sched.plans) if sched.plans[m]]
        assert [t.machine_id for t in offered] == brute_force
        left_out = [
            t
            for t in sim.trackers
            if t.machine_id not in brute_force
            and t.alive
            and len(t.running) < t.map_slots
        ]
        before = plan_state(sched)
        for tracker in left_out:
            assert sched.select_task(tracker, sim.now) is None
        assert plan_state(sched) == before
        probes.append(len(left_out))
        offer_all_idle()

    sim._offer_all_idle = probed_offer_all_idle
    sim.run()
    assert sum(probes) > 0  # the filter actually left trackers out
    assert sim.metrics.machine_failures == 2
    assert fingerprint(sim) == json.loads(GOLDEN.read_text())[case_id(seed, scheduler)]


@pytest.mark.parametrize("speculative", [False, True])
def test_speculation_offers_every_tracker(speculative):
    sim = build_case(1, "LiPS", speculative=speculative)
    fill_map_slots = sim._fill_map_slots
    offer_all_idle = sim._offer_all_idle
    offered = []
    in_offer_all = []

    def recording_fill(trackers) -> None:
        if in_offer_all:
            offered.append([t.machine_id for t in trackers])
        fill_map_slots(trackers)

    def marked_offer_all_idle() -> None:
        in_offer_all.append(True)
        try:
            offer_all_idle()
        finally:
            in_offer_all.pop()

    sim._fill_map_slots = recording_fill
    sim._offer_all_idle = marked_offer_all_idle
    sim.run()
    every = [t.machine_id for t in sim.trackers]
    assert offered
    if speculative:
        assert all(ids == every for ids in offered)
    else:
        assert any(ids != every for ids in offered)
