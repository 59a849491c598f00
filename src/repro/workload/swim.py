"""Synthetic SWIM/Facebook-like day trace (paper Figures 9–10).

The paper's 100-node experiments replay a 400-job workload produced by SWIM
from Facebook's FB-2010 trace (24 one-hour samples, one day).  The trace
itself is not redistributable here, so this module synthesises a workload
with the same published structure:

* **heavy-tailed job sizes** — the FB trace is dominated by interactive jobs
  of a handful of maps, with a long tail of jobs running hundreds to
  thousands of maps.  We use a three-class mixture (interactive / medium /
  long, the composition the paper itself names) with log-uniform sizes
  inside each class;
* **diurnal arrivals** — jobs arrive over 24 hours via a Poisson process
  modulated by a day/night rate profile;
* **application mix** — each job draws a Table I compute profile, biased
  toward I/O-bound jobs as in the original trace.

Figures 9–10 depend on this *mix* (who is short, who is long, how much data
moves), not on the identity of individual trace rows, so the substitution
preserves the comparison between LiPS and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.storage import BLOCK_MB
from repro.util import round_half_up
from repro.workload.apps import app_profile
from repro.workload.job import DataObject, Job, Workload

#: (class name, probability, (min maps, max maps)) — interactive jobs
#: dominate counts; long jobs dominate bytes, as in FB-2010.
DEFAULT_CLASSES: Tuple[Tuple[str, float, Tuple[int, int]], ...] = (
    ("interactive", 0.62, (1, 10)),
    ("medium", 0.28, (10, 150)),
    ("long", 0.10, (150, 1500)),
)

#: Application mix (Table I profiles) approximating an FB-like workload:
#: mostly scans/greps, some heavier aggregation jobs, occasional pure-CPU.
DEFAULT_APP_MIX: Tuple[Tuple[str, float], ...] = (
    ("grep", 0.45),
    ("stress1", 0.20),
    ("stress2", 0.15),
    ("wordcount", 0.15),
    ("pi", 0.05),
)

#: Hourly arrival-rate weights (relative); mild diurnal shape.
DIURNAL_WEIGHTS: Tuple[float, ...] = (
    0.5, 0.4, 0.4, 0.4, 0.5, 0.6, 0.8, 1.0,
    1.3, 1.5, 1.6, 1.6, 1.5, 1.5, 1.6, 1.6,
    1.5, 1.4, 1.2, 1.0, 0.9, 0.8, 0.7, 0.6,
)


@dataclass
class SwimConfig:
    """Parameters of the synthetic day trace."""

    num_jobs: int = 400
    duration_s: float = 24 * 3600.0
    classes: Tuple[Tuple[str, float, Tuple[int, int]], ...] = DEFAULT_CLASSES
    app_mix: Tuple[Tuple[str, float], ...] = DEFAULT_APP_MIX
    num_origin_stores: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if abs(sum(p for _, p, _ in self.classes) - 1.0) > 1e-9:
            raise ValueError("class probabilities must sum to 1")
        if abs(sum(p for _, p in self.app_mix) - 1.0) > 1e-9:
            raise ValueError("app mix probabilities must sum to 1")
        if min(p for _, p, _ in self.classes) < 0 or min(p for _, p in self.app_mix) < 0:
            raise ValueError("probabilities must be non-negative")
        if not all(0 < lo <= hi for _, _, (lo, hi) in self.classes):
            raise ValueError("class map ranges need 0 < lo <= hi")


def _cdf(probs: List[float]) -> np.ndarray:
    """Normalised CDF, as ``Generator.choice(p=probs)`` maps its one double."""
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    return cdf / cdf[-1]


def _arrival_times(rng: np.random.Generator, n: int, duration: float) -> np.ndarray:
    """n arrival times over [0, duration) following the diurnal profile."""
    weights = np.asarray(DIURNAL_WEIGHTS, dtype=float)
    probs = weights / weights.sum()
    hours = rng.choice(len(weights), size=n, p=probs)
    hour_len = duration / len(weights)
    times = hours * hour_len + rng.uniform(0.0, hour_len, size=n)
    return np.sort(times)


def synthesize_facebook_day(config: SwimConfig | None = None) -> Workload:
    """Generate the synthetic 24-hour, FB-2010-like workload.

    Every input-bearing job gets one data object sized ``maps x 64 MB`` (one
    block per map, HDFS-style), originating on a round-robin choice of
    ``num_origin_stores`` stores.

    After the arrivals, job *k* takes row *k* of one ``rng.random((n, 3))``
    draw: the three doubles its scalar draws took, in their order, so a seed
    keeps its day. (1) class: ``choice(p)``, i.e. the normalised CDF's
    ``searchsorted(u, side="right")``; (2) size: ``uniform(log lo, log hi)``,
    i.e. ``lo + (hi - lo) * u``; (3) app: ``choice(p)``, as for the class.
    """
    cfg = config or SwimConfig()
    rng = np.random.default_rng(cfg.seed)

    class_names = [c[0] for c in cfg.classes]
    app_names = [a[0] for a in cfg.app_mix]
    log_lo = np.array([np.log(lo) for _, _, (lo, _) in cfg.classes])
    log_hi = np.array([np.log(hi) for _, _, (_, hi) in cfg.classes])

    arrivals = _arrival_times(rng, cfg.num_jobs, cfg.duration_s)
    u = rng.random((cfg.num_jobs, 3))  # per job: class, size, app (see module doc)
    cls_idx = _cdf([c[1] for c in cfg.classes]).searchsorted(u[:, 0], side="right")
    lo, hi = log_lo[cls_idx], log_hi[cls_idx]
    sizes = np.exp(lo + (hi - lo) * u[:, 1])  # log-uniform: heavy tail within a class
    app_idx = _cdf([a[1] for a in cfg.app_mix]).searchsorted(u[:, 2], side="right")
    jobs: List[Job] = []
    data: List[DataObject] = []
    for k in range(cfg.num_jobs):
        cls, app = class_names[cls_idx[k]], app_names[app_idx[k]]
        maps = max(1, round_half_up(sizes[k]))
        prof = app_profile(app)
        common = dict(
            job_id=k,
            name=f"fb-{cls}-{app}-{k}",
            num_tasks=maps,
            arrival_time=float(arrivals[k]),
            pool=cls,
            app=app,
        )
        if prof.is_input_less:
            jobs.append(Job(tcp=0.0, data_ids=[], cpu_seconds_noinput=300.0 * maps, **common))
            continue
        d = DataObject(
            data_id=len(data),
            name=f"fb-input-{k}",
            size_mb=maps * BLOCK_MB,
            origin_store=len(data) % cfg.num_origin_stores,
        )
        data.append(d)
        jobs.append(Job(tcp=prof.tcp, data_ids=[d.data_id], **common))
    return Workload(jobs=jobs, data=data)


def class_histogram(workload: Workload) -> Dict[str, int]:
    """Job counts per SWIM class (pool) — used by tests and reports."""
    out: Dict[str, int] = {}
    for j in workload.jobs:
        out[j.pool] = out.get(j.pool, 0) + 1
    return out
