"""Process-local metrics: counters, gauges, histograms, merged registries.

The campaign engines, the Swiftest control plane, and the netsim fault
layer all need to *count things* — rows measured, retransmissions,
breaker trips, injected drops — without perturbing the measurement
itself.  This module provides the minimal instrument set those seams
share:

* :class:`Counter` — a monotonically increasing integer-ish total.
* :class:`Gauge` — a last-write-wins level (rows/sec, queue depth).
* :class:`Histogram` — fixed-boundary bucket counts plus running
  ``count/sum/min/max``, so per-row wall times and probing-phase
  durations aggregate without storing every observation.
* :class:`MetricsRegistry` — a flat name → instrument map that
  snapshots to a plain dict (:meth:`MetricsRegistry.to_dict`) and
  **merges**: shard workers return their registry snapshots with their
  results and the supervisor folds them together
  (:meth:`MetricsRegistry.merge`).  Counters and bucket counts add,
  gauges keep the maximum (the only order-free reduction for a level),
  histogram ``min``/``max`` widen — so the merged snapshot is
  identical whichever order the shards are folded in (associative and
  commutative for the integer-valued fields; float sums are folded in
  sorted-name order to keep runs reproducible).

Instrumented code never takes a registry parameter.  It calls
:func:`active_registry` — which returns the shared
:data:`NULL_REGISTRY` unless a caller opted in via
:func:`use_registry` — and records into whatever comes back.  The null
registry's instruments are inert singletons whose methods do nothing,
so an uninstrumented run pays a dict-free attribute call per event and
produces byte-identical results (the instruments never touch the
measurement path's RNG or data).
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "active_registry",
    "use_registry",
]

#: Default histogram boundaries: log-spaced from 1 ms to ~17 min, which
#: covers per-row wall times, probing phases, and heartbeat intervals.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    1e-3 * (4.0 ** k) for k in range(11)
)


class Counter:
    """A total that only goes up."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-write-wins level; merges by taking the maximum."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-boundary bucket counts plus running summary stats.

    ``bounds`` are the inclusive upper edges of the first
    ``len(bounds)`` buckets; one overflow bucket catches everything
    above the last edge.  Because every registry uses the same edges
    for the same metric name, merging is an elementwise add.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty "
                             f"bucket bounds, got {bounds!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.observe_many(value, 1)

    def observe_many(self, value: float, n: int) -> None:
        """Record ``value`` ``n`` times: the snapshot of ``n``
        :meth:`observe` calls, bit for bit, since ``sum`` takes ``n``
        sequential adds."""
        if n < 0:
            raise ValueError(f"histogram {self.name!r}: cannot observe "
                             f"a value {n} times")
        if n == 0:
            return
        value = float(value)
        self.buckets[bisect.bisect_left(self.bounds, value)] += n
        self.count += n
        total = self.sum
        for _ in range(n):
            total += value
        self.sum = total
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts: the upper edge
        of the bucket holding the ``q``-th observation, clamped to the
        observed ``max`` (NaN when empty)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        running = 0
        for i, n in enumerate(self.buckets):
            running += n
            if running >= target:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max)
                return self.max
        return self.max

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Flat name → instrument map with snapshot and merge."""

    def __init__(self):
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    # -- instrument access ---------------------------------------------

    def _get(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {instrument.kind}, not a {kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds), "histogram")

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshot ------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict]:
        """Plain-dict snapshot, keys sorted, JSON-serialisable."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }

    # -- merge ---------------------------------------------------------

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold one :meth:`to_dict` snapshot into this registry."""
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(name).inc(int(entry["value"]))
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.set(max(gauge.value, float(entry["value"])))
            elif kind == "histogram":
                self._merge_histogram(name, entry)
            else:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")

    def _merge_histogram(self, name: str, entry: Dict) -> None:
        hist = self.histogram(name, entry["bounds"])
        if list(hist.bounds) != [float(b) for b in entry["bounds"]]:
            raise ValueError(
                f"histogram {name!r}: mismatched bucket bounds"
            )
        for i, n in enumerate(entry["buckets"]):
            hist.buckets[i] += int(n)
        hist.count += int(entry["count"])
        hist.sum += float(entry["sum"])
        if entry.get("min") is not None:
            hist.min = min(hist.min, float(entry["min"]))
        if entry.get("max") is not None:
            hist.max = max(hist.max, float(entry["max"]))

    @staticmethod
    def merge(snapshots: Iterable[Dict[str, Dict]]) -> "MetricsRegistry":
        """Fold snapshots into a fresh registry.

        The reduction is commutative and associative for every
        integer-valued field, and the supervisor always folds shards in
        shard-id order, so a merged campaign snapshot is reproducible
        run to run.
        """
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge_snapshot(snapshot)
        return merged


# -- the no-op default -----------------------------------------------------


class _NullCounter:
    __slots__ = ()
    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, value: float, n: int) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """The zero-overhead default: every instrument is an inert
    singleton, nothing is ever recorded, snapshots are empty."""

    def __init__(self):
        super().__init__()

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_GAUGE  # type: ignore[return-value]

    def histogram(  # type: ignore[override]
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        return _NULL_HISTOGRAM  # type: ignore[return-value]


#: Shared inert registry; what :func:`active_registry` returns by default.
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def active_registry() -> MetricsRegistry:
    """The registry instrumented code records into right now."""
    return _active


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]):
    """Route :func:`active_registry` to ``registry`` inside the block.

    ``None`` leaves the current routing untouched (convenient for
    call sites that conditionally instrument)."""
    global _active
    if registry is None:
        yield _active
        return
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous
