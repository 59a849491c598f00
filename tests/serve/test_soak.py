"""The soak's service target: arrivals, chaos windows, lag, end-to-end gates."""

import re

import numpy as np
import pytest

from repro.cli import build_serve_parser, main, serve_soak_config
from repro.resilience.chaos import ChaosPlan, StragglerEvent
from repro.resilience.soak import (
    LAG_S,
    SERVICE,
    SoakConfig,
    arrival_schedule,
    build_scenario,
    build_soak_workload,
    derive_service_chaos,
    make_lag_injector,
    run_soak,
    trace_suffix_mismatch,
)
from repro.workload.arrivals import PoissonArrivals


def service_config(seed, horizon_s=2.5 * 3600.0, **overrides):
    """A service soak shaped like ``repro serve --sim``'s."""
    return SoakConfig(
        seeds=(seed,),
        targets=(SERVICE,),
        horizon_s=horizon_s,
        epoch_length=60.0,
        mean_time_to_failure_s=horizon_s,
        **overrides,
    )


def quick_config(seed=1, **overrides):
    return service_config(
        seed,
        horizon_s=2.25 * 3600.0,
        num_machines=4,
        num_submitters=2,
        num_jobs=5,
        checkpoint_every=4,
        **overrides,
    )


class TestScheduleDerivation:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        config = service_config(7, num_submitters=2, num_jobs=4)
        a = arrival_schedule(build_soak_workload(7, config, 4, np.random.default_rng(7)))
        b = arrival_schedule(build_soak_workload(7, config, 4, np.random.default_rng(7)))
        assert [(t, job.job_id) for t, job in a[0]] == [
            (t, job.job_id) for t, job in b[0]
        ]

    def test_schedule_merges_sorted_with_unique_ids(self):
        config = service_config(3, num_submitters=3, num_jobs=5)
        schedule, data_by_job = arrival_schedule(
            build_soak_workload(3, config, 4, np.random.default_rng(3))
        )
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        ids = [job.job_id for _, job in schedule]
        assert len(ids) == len(set(ids)) == 15
        assert set(data_by_job) == set(ids)

    def test_schedule_is_the_merge_of_one_poisson_stream_per_submitter(self):
        config = service_config(3, num_submitters=3, num_jobs=5)
        workload = build_soak_workload(3, config, 4, np.random.default_rng(3))
        rate = 5 / (config.horizon_s * 0.9)
        expected = []
        for s in range(3):
            own = workload.jobs[s * 5 : (s + 1) * 5]
            stream = list(PoissonArrivals(own, rate, seed=3 * 1009 + s))
            stretch = config.horizon_s * 0.9 / stream[-1][0]
            expected += [(t * stretch, job.job_id) for t, job in stream]
        schedule, _ = arrival_schedule(workload)
        assert [(t, job.job_id) for t, job in schedule] == sorted(expected)
        assert all(job.arrival_time == t for t, job in schedule)

    @pytest.mark.parametrize("size", [["--quick"], []], ids=["quick", "default"])
    def test_arrivals_outlast_the_sim_time_gate(self, size):
        # the soak reads its sim-time gate after the queue drains, so the feed
        # must outlast the gate on every seed, whatever the exponential draw
        for seed in range(10):
            args = build_serve_parser().parse_args(["--sim", *size, "--seed", str(seed)])
            config = serve_soak_config(args)
            last = max(job.arrival_time for job in build_scenario(seed, config).workload.jobs)
            assert args.min_hours * 3600.0 <= last <= config.horizon_s, (seed, last)


class TestChaosDerivation:
    def test_stragglers_become_lag_windows(self):
        plan = ChaosPlan(stragglers=[StragglerEvent(0, 120.0, 300.0, 3.0)])
        _, lag_windows = derive_service_chaos(plan, horizon_s=3600.0)
        assert lag_windows == [(120.0, 300.0)]

    def test_lag_injector_fires_only_inside_windows(self):
        injector = make_lag_injector([(120.0, 300.0)], 60.0)
        # epochs start at 0, 60, 120, ... — the window covers starts 120..240
        assert [injector(e) for e in range(7)] == [0, 0, LAG_S, LAG_S, LAG_S, 0, 0]


def _span(span_id, parent=None, links=None, wall_s=0.0):
    record = {"type": "span", "cat": "epoch", "name": "e", "ts": float(span_id),
              "span_id": span_id, "lp_wall_s": wall_s}
    if parent is not None:
        record["parent"] = parent
    if links is not None:
        record["links"] = links
    return record


class TestTraceSuffix:
    REFERENCE = [_span(1), _span(2, parent=1), _span(3), _span(4, parent=3, links=[2])]
    RECOVERED = {"type": "event", "cat": "service", "name": "recovered", "ts": 2.0}

    def _lives(self):
        # the second life numbers its spans from 1 again and reports its
        # recovery; wall-clock fields differ between the runs
        return [
            [_span(1, wall_s=0.5), _span(2, parent=1)],
            [self.RECOVERED, dict(_span(1), ts=3.0), dict(_span(2, 1, [0]), ts=4.0)],
        ]

    def test_stitched_lives_equal_the_reference(self):
        assert trace_suffix_mismatch(self.REFERENCE, self._lives()) is None

    def test_replayed_record_is_named(self):
        lives = self._lives()
        lives[1].insert(1, _span(1, wall_s=0.5))  # replay re-emitted life 0's epoch
        mismatch = trace_suffix_mismatch(self.REFERENCE, lives)
        assert mismatch == (
            "recovered trace (5 records) is not the reference (4): "
            "first differs at record 2 (epoch.e: ts)"
        )


class TestEndToEnd:
    def test_quick_soak_passes_every_gate(self, tmp_path):
        # 6 is off the 4-tick checkpoint grid: recovery replays a WAL suffix
        [outcome] = run_soak(quick_config(kill_after_epochs=(6,)), tmp_path, min_sim_hours=1.5)
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.kills == 1
        assert outcome.replayed_records > 0
        assert outcome.ledger_identical
        assert outcome.sim_time_s >= 1.5 * 3600.0
        assert outcome.submitted == outcome.admitted + outcome.shed
        assert outcome.completed == outcome.admitted

    def test_kill_on_a_snapshot_replays_nothing_and_fails(self, tmp_path):
        # tick 8 is a checkpoint: recovery loads it and replays no record,
        # so the WAL suffix replay the ledger gate protects never ran
        [outcome] = run_soak(quick_config(kill_after_epochs=(8,)), tmp_path, min_sim_hours=1.5)
        assert outcome.kills == 1
        assert outcome.replayed_records == 0
        assert [v.name for v in outcome.violations] == ["kill_recover"]

    def test_quick_cli_kill_replays_the_wal(self, tmp_path, capsys):
        assert main(["serve", "--sim", "--quick", "--workdir", str(tmp_path)]) == 0
        replayed = re.search(r"(\d+) WAL records replayed", capsys.readouterr().out)
        assert replayed is not None and int(replayed.group(1)) > 0
