"""Metric primitives: counters, gauges, histograms, and the registry.

Design notes:

* A metric is identified by ``(name, labels)`` where labels is a
  sorted tuple of ``(key, value)`` pairs; asking the registry twice
  for the same identity returns the same object.
* Counters/gauges hold a single number; histograms keep count, sum,
  min, max, and a bounded sample reservoir for percentiles (stride
  decimation once full, so long runs stay O(max_samples) memory).
* :class:`NullRegistry` hands out a shared no-op metric and a no-op
  timer. Code that wants literal zero overhead on hot paths instead
  keeps an optional timer attribute that stays ``None`` when
  observability is off (see ``Pipe._timer``,
  ``PipeScheduler.collect_timer``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _flat_name(name: str, key: LabelsKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount

    def snapshot(self) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"<Counter {_flat_name(self.name, self.labels)}={self.value}>"


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"<Gauge {_flat_name(self.name, self.labels)}={self.value}>"


class Histogram:
    """A distribution: running count/sum/min/max plus a bounded
    reservoir for percentile estimates."""

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "max_samples", "_samples", "_stride", "_skip")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelsKey = (), max_samples: int = 65536):
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # Stride decimation: when the reservoir fills, keep every 2nd
        # existing sample and halve the admission rate. Percentiles
        # stay representative of the whole run, not just its head.
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        if len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2
            self._skip = self._stride - 1
        self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Sample-estimated percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return ordered[index]

    def merge(self, other: "Histogram") -> None:
        """Fold in ``other``'s observations (the same timer in another
        process): exact count, sum, min and max; the reservoirs are
        pooled and decimated to ``max_samples``."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        samples = self._samples + other._samples
        while len(samples) > self.max_samples:
            samples = samples[::2]
            self._stride *= 2
        self._samples = samples

    def snapshot(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram {_flat_name(self.name, self.labels)} "
            f"n={self.count} mean={self.mean:g}>"
        )


class _Timer:
    """Context manager feeding wall-clock durations to a histogram."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()  # repro: allow-wallclock
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter() - self._t0)  # repro: allow-wallclock


class _NullMetric:
    """Accepts every metric operation and does nothing."""

    __slots__ = ()

    kind = "null"
    name = "null"
    labels: LabelsKey = ()
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def snapshot(self) -> Any:
        return 0


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_METRIC = _NullMetric()
_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """The one place metrics live for a run.

    >>> obs = MetricsRegistry()
    >>> obs.counter("pipe.drops_overflow").inc()
    >>> obs.gauge("core.utilization", core=0).set(0.87)
    >>> with obs.timed("phase.distill_s"):
    ...     pass
    >>> flat = obs.snapshot()
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], Any] = {}

    # -- metric accessors (get-or-create) ------------------------------

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, max_samples: int = 65536, **labels) -> Histogram:
        return self._get(Histogram, name, labels, max_samples=max_samples)

    def timed(self, name: str, **labels):
        """Time a ``with`` block into histogram ``name`` (seconds)."""
        return _Timer(self.histogram(name, **labels))

    def install(self, metric) -> None:
        """Put ``metric`` (say, a histogram merged from other
        processes) at its identity, replacing what was there."""
        self._metrics[(metric.name, metric.labels)] = metric

    def update(self, other: "MetricsRegistry") -> None:
        """Install every metric of ``other``."""
        self._metrics.update(other._metrics)

    # -- introspection ----------------------------------------------------

    def get(self, name: str, **labels):
        """The metric at (name, labels), or None."""
        return self._metrics.get((name, _labels_key(labels)))

    def __iter__(self) -> Iterator:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{rendered-name: value-or-summary}`` of every metric,
        deterministically ordered by name."""
        flat = {
            _flat_name(metric.name, metric.labels): metric.snapshot()
            for metric in self._metrics.values()
        }
        return dict(sorted(flat.items()))


class NullRegistry(MetricsRegistry):
    """The zero-overhead default: every accessor returns a shared
    no-op metric, ``timed`` returns a no-op context manager, and
    consumers that check :attr:`enabled` skip instrumentation
    entirely."""

    enabled = False

    def counter(self, name: str, **labels) -> Counter:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, **labels) -> Gauge:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(self, name: str, max_samples: int = 65536, **labels) -> Histogram:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def timed(self, name: str, **labels):
        return _NULL_TIMER

    def install(self, metric) -> None:
        pass

    def update(self, other: MetricsRegistry) -> None:
        pass

    def get(self, name: str, **labels) -> Optional[Any]:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}


#: Shared process-wide null registry (stateless, safe to share).
NULL_REGISTRY = NullRegistry()
