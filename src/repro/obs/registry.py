"""Metrics registry: named counters, gauges and histograms with labels.

The registry is the structured replacement for ad-hoc metric attributes:
:class:`~repro.hadoop.metrics.SimMetrics` keeps its scalar fields on a
per-run registry, and long-lived processes (the CLI with ``--metrics``)
install a *current* registry that every finished simulation publishes into.

Design points
-------------
* **Labels** — every observation may carry a label set (``machine="3"``,
  ``scheduler="LipsScheduler"``); each distinct label combination is an
  independent series, Prometheus-style.
* **Determinism** — the registry never reads clocks or randomness; dumping
  it yields a stable, sorted structure suitable for golden tests.
* **Cheapness** — an increment is a dict lookup and a float add; metric
  objects are memoised by name so hot paths can hold direct references.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical hashable form of a label mapping (``()`` when unlabelled)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named metric with per-label-set series.

    Every metric carries its own lock: observations can arrive from late
    :class:`~repro.resilience.solver.ResilientSolver` worker threads while
    the main thread keeps incrementing, so series mutation is serialized
    per metric (reads are snapshot-free — CPython dict reads are safe
    against concurrent locked writes, and dumps run after the fact).
    """

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    # metrics cross process boundaries inside sweep results; locks do not
    # pickle, so drop the lock on the way out and mint one on the way in
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _series(self) -> Dict[LabelKey, object]:  # pragma: no cover - abstract
        raise NotImplementedError

    def snapshot(self) -> Dict[LabelKey, object]:  # pragma: no cover - abstract
        """Point-in-time copy of every series, taken under the metric lock.

        Unlike :meth:`dump` (which runs after a run has quiesced), a
        snapshot may be taken *mid-run* from a scraping thread while the
        main thread keeps observing — hence the lock.
        """
        raise NotImplementedError

    def dump(self) -> dict:
        """JSON-ready description of the metric and all its series."""
        series = [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series().items())
        ]
        return {"name": self.name, "kind": self.kind, "help": self.help, "series": series}


class Counter(Metric):
    """A monotonically-increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: object) -> None:
        """Force the labelled series to ``value`` (used by metric adapters)."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels: object) -> float:
        """Current total of the labelled series (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._values.values())

    def _series(self) -> Dict[LabelKey, float]:
        return self._values

    def snapshot(self) -> Dict[LabelKey, float]:
        """Locked point-in-time copy of every series."""
        with self._lock:
            return dict(self._values)


class Gauge(Metric):
    """A value that can move both ways per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the labelled series to ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        """Shift the labelled series by ``amount`` (either sign)."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of the labelled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def _series(self) -> Dict[LabelKey, float]:
        return self._values

    def snapshot(self) -> Dict[LabelKey, float]:
        """Locked point-in-time copy of every series."""
        with self._lock:
            return dict(self._values)


#: Default histogram buckets — tuned for LP solve times (seconds); spans
#: sub-millisecond toy models to multi-second paper-scale models.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)


class _HistogramSeries:
    """Bucket counts + sum/count/min/max for one label set."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # +inf overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(Metric):
    """Bucketed distribution of observations per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(tuple(buckets)):
            raise ValueError("histogram buckets must be sorted and unique")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._series_map: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation in the labelled series."""
        key = _label_key(labels)
        with self._lock:
            series = self._series_map.get(key)
            if series is None:
                series = self._series_map[key] = _HistogramSeries(len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
                    break
            else:
                series.bucket_counts[-1] += 1
            series.count += 1
            series.sum += value
            series.min = min(series.min, value)
            series.max = max(series.max, value)

    def count(self, **labels: object) -> int:
        """Observations recorded in the labelled series."""
        series = self._series_map.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        """Sum of observations in the labelled series."""
        series = self._series_map.get(_label_key(labels))
        return series.sum if series else 0.0

    def mean(self, **labels: object) -> float:
        """Mean observation (0 when the series is empty)."""
        series = self._series_map.get(_label_key(labels))
        if not series or series.count == 0:
            return 0.0
        return series.sum / series.count

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-interpolated quantile estimate for the labelled series.

        Standard Prometheus ``histogram_quantile`` semantics: find the
        bucket the ``q``-th observation falls in and interpolate linearly
        inside it, with two exactness refinements the tracked ``min``/
        ``max`` allow — the first bucket interpolates from the observed
        minimum (not 0), and a quantile landing in the ``+inf`` overflow
        bucket returns the observed maximum instead of an unbounded guess.
        Returns 0.0 for an empty series; ``q`` must be in [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        series = self._series_map.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        rank = q * series.count
        cumulative = 0
        for i, bucket_count in enumerate(series.bucket_counts):
            if bucket_count == 0:
                continue
            prev_cumulative = cumulative
            cumulative += bucket_count
            if cumulative < rank:
                continue
            if i >= len(self.buckets):  # +inf overflow bucket
                return series.max
            hi = self.buckets[i]
            lo = self.buckets[i - 1] if i > 0 else series.min
            lo = max(min(lo, hi), series.min) if i == 0 else lo
            frac = (rank - prev_cumulative) / bucket_count
            value = lo + (hi - lo) * max(0.0, min(1.0, frac))
            # the estimate can never leave the observed envelope
            return max(series.min, min(series.max, value))
        return series.max

    def _series(self) -> Dict[LabelKey, dict]:
        out: Dict[LabelKey, dict] = {}
        for key, s in self._series_map.items():
            out[key] = {
                "count": s.count,
                "sum": s.sum,
                "min": s.min if s.count else None,
                "max": s.max if s.count else None,
                "buckets": [
                    {"le": b, "count": c}
                    for b, c in zip(list(self.buckets) + ["+inf"], s.bucket_counts)
                ],
            }
        return out

    def snapshot(self) -> Dict[LabelKey, dict]:
        """Locked point-in-time copy: bucket counts + count/sum/min/max."""
        with self._lock:
            out: Dict[LabelKey, dict] = {}
            for key, s in self._series_map.items():
                out[key] = {
                    "count": s.count,
                    "sum": s.sum,
                    "min": s.min if s.count else None,
                    "max": s.max if s.count else None,
                    "bucket_counts": list(s.bucket_counts),
                }
            return out


class MetricSnapshot:
    """Frozen point-in-time view of one metric (see ``MetricsRegistry.snapshot``)."""

    __slots__ = ("name", "kind", "help", "series", "buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        series: Dict[LabelKey, object],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series = series
        self.buckets = buckets


class RegistrySnapshot:
    """A consistent-enough scrape of a registry taken mid-run.

    Each metric's series are copied under that metric's own lock (the same
    locks the hot-path observers take), so no individual series is ever
    seen half-updated; cross-metric skew is possible and acceptable for a
    live scrape.  Snapshots are plain data — safe to serialise and ship
    across threads.
    """

    def __init__(self, metrics: List[MetricSnapshot]) -> None:
        self.metrics = metrics

    def scalars(self) -> Dict[Tuple[str, LabelKey], float]:
        """Flat ``(name, labels) -> value`` view of counters and gauges."""
        out: Dict[Tuple[str, LabelKey], float] = {}
        for m in self.metrics:
            if m.kind in ("counter", "gauge"):
                for key, value in m.series.items():
                    out[(m.name, key)] = float(value)  # type: ignore[arg-type]
        return out


class MetricsRegistry:
    """A namespace of metrics, memoised by name.

    Asking twice for the same name returns the same object; asking for an
    existing name with a different metric kind raises — silent type drift is
    how metrics rot.  Lookup-or-create is locked: a late solver thread
    asking for ``lp_solve_failures`` must get the same Counter object the
    main thread holds, not a second one that shadows it in the map.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            metric = cls(name, help=help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def metrics(self) -> List[Metric]:
        """All metrics, sorted by name."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def merge_from(self, other: "MetricsRegistry", **labels: object) -> None:
        """Fold another registry's series into this one.

        Counters and gauges accumulate; histogram series merge bucket by
        bucket (same bucket bounds required).  Extra ``labels`` are added
        to every merged series — the per-seed soak registries use this to
        land in the ambient ``--metrics`` registry labelled by seed.
        """
        for metric in other.metrics():
            if isinstance(metric, Counter):
                mine = self.counter(metric.name, metric.help)
                for key, value in metric._series().items():
                    mine.inc(value, **dict(key), **labels)
            elif isinstance(metric, Gauge):
                mine = self.gauge(metric.name, metric.help)
                for key, value in metric._series().items():
                    mine.add(value, **dict(key), **labels)
            elif isinstance(metric, Histogram):
                mine = self.histogram(metric.name, metric.help, buckets=metric.buckets)
                if mine.buckets != metric.buckets:
                    raise ValueError(
                        f"histogram {metric.name!r} bucket bounds differ; cannot merge"
                    )
                with mine._lock:
                    for key, series in metric._series_map.items():
                        merged_key = _label_key({**dict(key), **labels})
                        mine_series = mine._series_map.get(merged_key)
                        if mine_series is None:
                            mine_series = mine._series_map[merged_key] = _HistogramSeries(
                                len(mine.buckets)
                            )
                        for i, c in enumerate(series.bucket_counts):
                            mine_series.bucket_counts[i] += c
                        mine_series.count += series.count
                        mine_series.sum += series.sum
                        mine_series.min = min(mine_series.min, series.min)
                        mine_series.max = max(mine_series.max, series.max)

    def snapshot(self) -> RegistrySnapshot:
        """Scrape every metric under its own lock (safe mid-run).

        Metric *registration* is also locked, so the metric list itself is
        copied under the registry lock before the per-metric scrapes.
        """
        with self._lock:
            metrics = [self._metrics[k] for k in sorted(self._metrics)]
        out: List[MetricSnapshot] = []
        for metric in metrics:
            out.append(
                MetricSnapshot(
                    name=metric.name,
                    kind=metric.kind,
                    help=metric.help,
                    series=metric.snapshot(),
                    buckets=metric.buckets if isinstance(metric, Histogram) else None,
                )
            )
        return RegistrySnapshot(out)

    def dump(self) -> List[dict]:
        """JSON-ready dump of every metric (sorted, deterministic)."""
        return [m.dump() for m in self.metrics()]

    def write_json(self, path) -> None:
        """Atomically write the dump to ``path`` as pretty-printed JSON.

        Same tmp-then-replace + fsync discipline as the serve snapshots
        (:func:`repro.serve.journal.write_snapshot`): a kill mid-dump can
        leave a stale ``.tmp`` file behind but never a truncated dump at
        ``path`` — the exit-time metrics file is either absent, the old
        complete dump, or the new complete dump.
        """
        path = os.fspath(path)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.dump(), fh, indent=2, sort_keys=False)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        parent = os.path.dirname(os.path.abspath(path))
        dir_fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)


#: Process-wide registry sims publish into when one is installed (CLI
#: ``--metrics``).  ``None`` means "nobody is collecting" — publishing is
#: skipped entirely.
_current: Optional[MetricsRegistry] = None


def current_registry() -> Optional[MetricsRegistry]:
    """The installed collection registry, or None when none is active."""
    return _current


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the process-wide collection target."""
    global _current
    prev = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = prev
