"""Statistics collection: counters, distributions and their percentiles.

The paper reports P95 latencies (KVStore), bandwidth utilization, active
context ratios over time, and traffic breakdowns.  :class:`StatsRegistry`
is the shared sink every component writes into so experiments can pull one
coherent snapshot after a run.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, used for the paper's GMEAN speedup rows."""
    if not values:
        raise ValueError("geometric mean of empty list")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Distribution:
    """Streaming collection of scalar samples with summary accessors.

    Percentile queries share one cached ``np.sort`` of the sample set
    (invalidated on :meth:`add`) and interpolate vectorized — serving
    reports asking for p50/p95/p99 over tens of thousands of latencies
    pay one O(n log n) sort total, not one Python sort per quantile.
    """

    samples: list[float] = field(default_factory=list)
    _ordered: np.ndarray | None = field(
        default=None, repr=False, compare=False)

    def add(self, value: float) -> None:
        self.samples.append(value)
        self._ordered = None

    def add_many(self, values) -> None:
        """Bulk ingestion of an array/iterable of samples.

        One ``extend`` instead of a Python ``add()`` loop (the serving
        engine lands a whole scatter batch's latencies at once); the
        percentile sort cache is invalidated exactly as :meth:`add` does.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size:
            self.samples.extend(arr.tolist())
            self._ordered = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("mean of empty distribution")
        return self.total / len(self.samples)

    def _sorted_samples(self) -> np.ndarray:
        if self._ordered is None or self._ordered.size != len(self.samples):
            self._ordered = np.sort(
                np.asarray(self.samples, dtype=np.float64))
        return self._ordered

    def percentiles(self, pcts) -> list[float]:
        """All requested percentiles from one vectorized interpolation.

        Linear interpolation at rank ``pct/100 * (n-1)``, clamped to the
        bracketing samples so FP rounding cannot escape them (e.g.
        -53*0.92 + -53*0.08 can land below -53).

        >>> Distribution([1.0, 2.0, 3.0, 4.0]).percentile(50)
        2.5
        """
        if not self.samples:
            raise ValueError("percentile of empty sample set")
        p = np.asarray(pcts, dtype=np.float64)
        if ((p < 0) | (p > 100)).any():
            raise ValueError(
                f"percentile must be within [0, 100], got {pcts}")
        ordered = self._sorted_samples()
        if ordered.size == 1:
            return [float(ordered[0])] * p.size
        ranks = p / 100.0 * (ordered.size - 1)
        lo = np.floor(ranks).astype(np.int64)
        hi = np.ceil(ranks).astype(np.int64)
        frac = ranks - lo
        values = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        values = np.minimum(np.maximum(values, ordered[lo]), ordered[hi])
        return [float(v) for v in values]

    def percentile(self, pct: float) -> float:
        return self.percentiles([pct])[0]

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)


class StatsRegistry:
    """Hierarchical counter / distribution sink.

    Counter names are dotted paths such as ``"dram.row_hits"`` or
    ``"cxl.tx_bytes"``; components increment them and experiments read a
    flat snapshot.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = defaultdict(float)
        self._distributions: dict[str, Distribution] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] += amount

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counters.get(name, default)

    def observe_many(self, name: str, values) -> None:
        """Add ``values`` to the distribution ``name`` (one
        :meth:`Distribution.add_many`), creating it on first use."""
        dist = self._distributions.get(name)
        if dist is None:
            dist = self._distributions[name] = Distribution()
        dist.add_many(values)

    def distribution(self, name: str) -> Distribution:
        if name not in self._distributions:
            raise KeyError(f"no distribution named {name!r}")
        return self._distributions[name]

    def counters(self, prefix: str = "") -> dict[str, float]:
        """Snapshot of all counters whose name starts with ``prefix``."""
        return {k: v for k, v in self._counters.items() if k.startswith(prefix)}

    def snapshot(self) -> dict[str, float]:
        """Counter snapshot with **deterministically sorted** keys.

        Counter insertion order depends on execution interleaving, so raw
        :meth:`counters` dicts differ between otherwise identical runs;
        benchmark JSON and run manifests serialize this view instead so
        they diff stably.
        """
        return {key: self._counters[key] for key in sorted(self._counters)}

    def timeline(self, prefix: str = "",
                 start_ns: float = 0.0) -> "Timeline":
        """Windowed view of counter deltas under ``prefix``.

        Call :meth:`Timeline.mark` at window boundaries; each mark closes
        a window holding the counter *deltas* accumulated since the
        previous mark.  Serving reports and the SLO monitor use this
        instead of hand-rolling snapshot/subtract interval math.
        """
        return Timeline(self, prefix, start_ns)


@dataclass
class TimelineWindow:
    """One window of counter deltas: [start_ns, end_ns)."""

    start_ns: float
    end_ns: float
    deltas: dict[str, float]

    @property
    def span_ns(self) -> float:
        return self.end_ns - self.start_ns

    def sum_suffix(self, suffix: str) -> float:
        """Sum of deltas across counters ending with ``suffix`` (e.g. the
        total ``.served`` over all tenants in a ``serve.`` timeline)."""
        return sum(v for k, v in self.deltas.items() if k.endswith(suffix))

    def rate_suffix_per_s(self, suffix: str) -> float:
        if self.span_ns <= 0:
            return 0.0
        return self.sum_suffix(suffix) / (self.span_ns * 1e-9)


class Timeline:
    """Counter-delta windows over a registry (see `StatsRegistry.timeline`)."""

    def __init__(self, registry: StatsRegistry, prefix: str = "",
                 start_ns: float = 0.0) -> None:
        self._registry = registry
        self._prefix = prefix
        self._last_ns = start_ns
        self._last_snapshot = registry.counters(prefix)
        self.windows: list[TimelineWindow] = []

    def mark(self, now_ns: float) -> TimelineWindow:
        """Close the current window at ``now_ns`` and start the next one."""
        if now_ns < self._last_ns:
            raise ValueError(
                f"timeline mark at {now_ns} before previous {self._last_ns}"
            )
        snapshot = self._registry.counters(self._prefix)
        deltas = {
            key: value - self._last_snapshot.get(key, 0.0)
            for key, value in snapshot.items()
            if value != self._last_snapshot.get(key, 0.0)
        }
        window = TimelineWindow(self._last_ns, now_ns, deltas)
        self.windows.append(window)
        self._last_ns = now_ns
        self._last_snapshot = snapshot
        return window


class IntervalSampler:
    """Time series of (time, value) points, for Fig 6a-style plots.

    The ratio of active µthread contexts over time is recorded by sampling
    a gauge whenever it changes; :meth:`series` resamples onto a uniform
    grid for table output.  A launch records one point on each of its
    units (:func:`record_all`), so the points live in one float64
    :mod:`array`, time and value in turn, that ``extend`` grows
    geometrically: 16 B a point.
    """

    def __init__(self) -> None:
        self._flat = array("d")
        self._last = -math.inf

    @property
    def points(self) -> list[tuple[float, float]]:
        """The ``(time, value)`` points, in the order recorded."""
        return list(zip(self._flat[0::2], self._flat[1::2]))

    def record(self, time_ns: float, value: float) -> None:
        record_all((self,), time_ns, value)

    def series(self, start_ns: float, end_ns: float, steps: int) -> list[tuple[float, float]]:
        """Step-function resample onto ``steps`` uniform buckets."""
        if steps <= 0:
            raise ValueError("steps must be positive")
        if end_ns <= start_ns:
            raise ValueError("end must be after start")
        points = self.points
        out: list[tuple[float, float]] = []
        idx = 0
        current = points[0][1] if points else 0.0
        for step in range(steps):
            t = start_ns + (end_ns - start_ns) * step / (steps - 1 if steps > 1 else 1)
            while idx < len(points) and points[idx][0] <= t:
                current = points[idx][1]
                idx += 1
            out.append((t, current))
        return out

    def time_weighted_mean(self, start_ns: float, end_ns: float) -> float:
        """Average value over [start, end] treating points as a step function."""
        if end_ns <= start_ns:
            raise ValueError("end must be after start")
        # points are time-ordered: read only those inside the window (a
        # monitored run asks once per window, so a scan from point 0 would
        # be quadratic in launches); the views are released before the
        # next record can grow the array
        with memoryview(self._flat) as flat, flat[0::2] as times:
            first = bisect_left(times, start_ns)
            last = bisect_right(times, end_ns, first)
            current = flat[2 * first - 1] if first else 0.0
            window = flat[2 * first:2 * last].tolist()
        area = 0.0
        prev_t = start_ns
        for t, v in zip(window[0::2], window[1::2]):
            area += current * (t - prev_t)
            prev_t = t
            current = v
        area += current * (end_ns - prev_t)
        return area / (end_ns - start_ns)


def record_all(samplers, time_ns: float, value: float) -> None:
    """:meth:`IntervalSampler.record` the point on each of ``samplers``.

    Virtual-time execution can complete work slightly out of order, so a
    point earlier than a sampler's last one is clamped to that time to
    keep its series monotonic."""
    point = (time_ns, value)
    for sampler in samplers:
        if time_ns < sampler._last:
            sampler._flat.extend((sampler._last, value))
        else:
            sampler._flat.extend(point)
            sampler._last = time_ns
