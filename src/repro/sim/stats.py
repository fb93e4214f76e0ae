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

    The samples are one float64 :mod:`array` (8 B a sample), in the
    order added.  Percentile queries share one cached ``np.sort`` of
    them (invalidated on :meth:`add`) and interpolate vectorized —
    serving reports asking for p50/p95/p99 over tens of thousands of
    latencies pay one O(n log n) sort total, not one Python sort per
    quantile.
    """

    samples: array = ()
    _ordered: np.ndarray | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.samples = array("d", self.samples)

    def add(self, value: float) -> None:
        self.samples.append(value)
        self._ordered = None

    def add_many(self, values) -> None:
        """Bulk ingestion of an array/iterable of samples.

        One copy of the values' bytes instead of a Python ``add()`` loop
        (the serving engine lands a whole scatter batch's latencies at
        once); the percentile sort cache is invalidated exactly as
        :meth:`add` does.
        """
        arr = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if arr.size:
            self.samples.frombytes(arr.tobytes())
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
            # a copy: the view of the array's buffer ends with the line
            self._ordered = np.sort(np.frombuffer(self.samples))
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
    """Hierarchical counter sink.

    Counter names are dotted paths such as ``"dram.row_hits"`` or
    ``"cxl.tx_bytes"``; components increment them and experiments read a
    flat snapshot.  It keeps counters only: a store of samples belongs to
    whoever reads it (a serving engine keeps its tenants' latencies), so
    a platform's registry does not grow with the requests it served.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] += amount

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counters.get(name, default)

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


class StepSeries:
    """Time series of (time, value) points, for Fig 6a-style plots.

    A gauge's points, read as a step function: :meth:`series` resamples
    them onto a uniform grid for table output, and
    :meth:`time_weighted_mean` averages any window.  The points live in
    one float64 :mod:`array`, time and value in turn, that ``extend``
    grows geometrically: 16 B a point, kept for as long as the series
    is.  A point earlier than the last one is clamped to its time (see
    :func:`record_all`).
    """

    def __init__(self) -> None:
        self._flat = array("d")
        self._last = -math.inf

    @property
    def points(self) -> list[tuple[float, float]]:
        """The ``(time, value)`` points, in the order recorded."""
        return list(zip(self._flat[0::2], self._flat[1::2]))

    def record(self, time_ns: float, value: float) -> None:
        if time_ns < self._last:
            time_ns = self._last
        self._last = time_ns
        self._flat.extend((time_ns, value))

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


class IntervalSampler:
    """A gauge's running time integral: its mean over ``[0, end]``.

    The ratio of active µthread contexts of an NDP unit is recorded
    whenever it changes (:func:`record_all`); the sampler keeps the time
    and value of the last point and the area under the step function up
    to it, 24 B however long it runs.  Its one reader, Fig 6a's mean,
    reads :meth:`mean`.  A reader that needs the points themselves (Fig
    6a's plot, a traced run's utilization windows) attaches a
    :class:`StepSeries` as :attr:`series` before the points it reads are
    recorded: it gets each point as clamped, for as long as it stays
    attached.  Time starts at 0, like a simulator's clock.
    """

    __slots__ = ("_last", "_value", "_area", "series")

    def __init__(self) -> None:
        self._last = 0.0
        self._value = 0.0
        self._area = 0.0
        #: The attached point store, or None: no point is kept.
        self.series: StepSeries | None = None

    def record(self, time_ns: float, value: float) -> None:
        record_all((self,), time_ns, value)

    def attach_series(self) -> StepSeries:
        """The attached :class:`StepSeries`, attached now if none is."""
        if self.series is None:
            self.series = StepSeries()
        return self.series

    def mean(self, end_ns: float) -> float:
        """Time-weighted mean over ``[0, end]``, ``end`` at or after the
        last point.  The area is summed in the order
        :meth:`StepSeries.time_weighted_mean` sums it from 0, so the two
        agree to the bit."""
        if not end_ns >= self._last or end_ns <= 0.0:
            raise ValueError(
                f"mean to {end_ns} ns: must be > 0 and at or after the "
                f"last point ({self._last} ns)")
        return (self._area + self._value * (end_ns - self._last)) / end_ns


def record_all(samplers, time_ns: float, value: float) -> None:
    """:meth:`IntervalSampler.record` the point on each of ``samplers``.

    Virtual-time execution can complete work slightly out of order, so a
    point earlier than a sampler's last one is clamped to that time to
    keep its series monotonic."""
    for sampler in samplers:
        last = sampler._last
        if time_ns < last:
            at = last
        else:
            at = sampler._last = time_ns
        sampler._area += sampler._value * (at - last)
        sampler._value = value
        if sampler.series is not None:
            sampler.series.record(at, value)
