"""Unit tests for arrival processes."""

import pytest

from repro.workload.arrivals import PoissonArrivals
from repro.workload.job import Job


def jobs(n):
    return [
        Job(job_id=i, name=f"j{i}", tcp=0.0, cpu_seconds_noinput=1.0, arrival_time=float(n - i))
        for i in range(n)
    ]


def test_poisson_arrivals_monotone_and_positive():
    p = PoissonArrivals(jobs(50), rate_per_s=0.5, seed=3)
    times = [time for time, _ in p]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
    assert times[0] > 0


def test_poisson_repeatable_iteration():
    p = PoissonArrivals(jobs(10), rate_per_s=1.0, seed=3)
    assert list(p) == list(p)


def test_poisson_seed_controls_draw():
    a = [t for t, _ in PoissonArrivals(jobs(10), 1.0, seed=1)]
    b = [t for t, _ in PoissonArrivals(jobs(10), 1.0, seed=2)]
    assert a != b


def test_poisson_rate_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(jobs(1), rate_per_s=0.0)


def test_poisson_mean_gap_tracks_rate():
    p = PoissonArrivals(jobs(2000), rate_per_s=2.0, seed=0)
    times = [t for t, _ in p]
    mean_gap = times[-1] / len(times)
    assert mean_gap == pytest.approx(0.5, rel=0.15)
