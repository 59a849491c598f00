"""Unit tests for the synthetic SWIM/Facebook day trace."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.storage import BLOCK_MB
from repro.util import round_half_up
from repro.workload.apps import app_profile
from repro.workload.job import DataObject, Job
from repro.workload.swim import (
    SwimConfig,
    _arrival_times,
    class_histogram,
    synthesize_facebook_day,
)


@pytest.fixture(scope="module")
def trace():
    return synthesize_facebook_day(SwimConfig(num_jobs=300, seed=4))


def test_job_count(trace):
    assert trace.num_jobs == 300


def test_interactive_jobs_dominate_counts(trace):
    hist = class_histogram(trace)
    assert hist["interactive"] > hist["medium"] > hist["long"]


def test_long_jobs_dominate_bytes(trace):
    mb_by_class = {}
    for j in trace.jobs:
        mb_by_class.setdefault(j.pool, 0.0)
        mb_by_class[j.pool] += j.total_input_mb(trace.data)
    assert mb_by_class["long"] > mb_by_class["interactive"]


def test_arrivals_sorted_within_day(trace):
    times = [j.arrival_time for j in trace.jobs]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 24 * 3600.0


def test_one_block_per_map(trace):
    for j in trace.jobs:
        if j.has_input:
            d = trace.data[j.data_ids[0]]
            assert d.size_mb == pytest.approx(j.num_tasks * BLOCK_MB)


def test_origin_stores_round_robin():
    w = synthesize_facebook_day(SwimConfig(num_jobs=50, num_origin_stores=4, seed=1))
    origins = {d.origin_store for d in w.data}
    assert origins <= {0, 1, 2, 3}
    assert len(origins) == 4


def test_deterministic_under_seed():
    a = synthesize_facebook_day(SwimConfig(num_jobs=40, seed=7))
    b = synthesize_facebook_day(SwimConfig(num_jobs=40, seed=7))
    assert [j.num_tasks for j in a.jobs] == [j.num_tasks for j in b.jobs]
    assert [j.arrival_time for j in a.jobs] == [j.arrival_time for j in b.jobs]


def test_config_validation():
    with pytest.raises(ValueError):
        SwimConfig(num_jobs=0)
    with pytest.raises(ValueError):
        SwimConfig(classes=(("only", 0.5, (1, 2)),))
    with pytest.raises(ValueError):
        SwimConfig(app_mix=(("grep", 0.4),))
    # the batched draw keeps the checks numpy's scalar choice/uniform made
    with pytest.raises(ValueError, match="non-negative"):
        SwimConfig(app_mix=(("grep", 1.1), ("pi", -0.1)))
    for bad in ((5, 2), (0, 4)):
        with pytest.raises(ValueError, match="ranges"):
            SwimConfig(classes=(("a", 0.5, (1, 3)), ("b", 0.5, bad)))


def test_heavy_tail_shape(trace):
    sizes = np.array(sorted(j.num_tasks for j in trace.jobs))
    # median tiny, max huge — the FB-2010 signature
    assert np.median(sizes) <= 20
    assert sizes.max() >= 150


def scalar_draw_day(cfg):
    """The per-job ``choice``/``uniform`` loop the batched draw replaced."""
    rng = np.random.default_rng(cfg.seed)
    class_names = [c[0] for c in cfg.classes]
    class_probs = np.array([c[1] for c in cfg.classes])
    class_ranges = {c[0]: c[2] for c in cfg.classes}
    app_names = [a[0] for a in cfg.app_mix]
    app_probs = np.array([a[1] for a in cfg.app_mix])
    arrivals = _arrival_times(rng, cfg.num_jobs, cfg.duration_s)
    jobs, data = [], []
    for k in range(cfg.num_jobs):
        cls = class_names[int(rng.choice(len(class_names), p=class_probs))]
        lo, hi = class_ranges[cls]
        maps = max(1, round_half_up(np.exp(rng.uniform(np.log(lo), np.log(hi)))))
        app = app_names[int(rng.choice(len(app_names), p=app_probs))]
        prof = app_profile(app)
        common = dict(job_id=k, name=f"fb-{cls}-{app}-{k}", num_tasks=maps,
                      arrival_time=float(arrivals[k]), pool=cls, app=app)
        if prof.is_input_less:
            jobs.append(Job(tcp=0.0, data_ids=[], cpu_seconds_noinput=300.0 * maps, **common))
            continue
        d = DataObject(data_id=len(data), name=f"fb-input-{k}", size_mb=maps * BLOCK_MB,
                       origin_store=len(data) % cfg.num_origin_stores)
        data.append(d)
        jobs.append(Job(tcp=prof.tcp, data_ids=[d.data_id], **common))
    return jobs, data


def fields(objs):
    """Every dataclass field, with its type, so 3 and 3.0 differ."""
    return [[(type(v), v) for v in dataclasses.astuple(o)] for o in objs]


CUSTOM_CLASSES = (("tiny", 0.5, (1, 3)), ("flat", 0.2, (4, 4)), ("huge", 0.3, (20, 5000)))
CUSTOM_APPS = (("pi", 0.25), ("grep", 0.5), ("stress2", 0.25))


@pytest.mark.parametrize("num_jobs", [1, 400])
@pytest.mark.parametrize("seed", [0, 1, 7, 2014])
@pytest.mark.parametrize(
    "custom", [{}, {"classes": CUSTOM_CLASSES, "app_mix": CUSTOM_APPS}, {"num_origin_stores": 3}]
)
def test_batched_draw_matches_scalar_draws(num_jobs, seed, custom):
    cfg = SwimConfig(num_jobs=num_jobs, seed=seed, **custom)
    day = synthesize_facebook_day(cfg)
    jobs, data = scalar_draw_day(cfg)
    assert fields(day.jobs) == fields(jobs)
    assert fields(day.data) == fields(data)
