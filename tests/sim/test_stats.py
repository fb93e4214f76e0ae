"""Tests for statistics helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import (
    Distribution,
    IntervalSampler,
    StatsRegistry,
    geometric_mean,
)


def percentile(samples: list[float], pct: float) -> float:
    return Distribution(list(samples)).percentile(pct)


class TestPercentile:
    """``Distribution.percentile``: the one percentile implementation."""

    def test_median_of_four(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_p0_is_min_p100_is_max(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_single_sample(self):
        assert percentile([42.0], 95) == 42.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1,
                    max_size=100),
           st.floats(min_value=0, max_value=100))
    def test_bounded_by_min_max(self, samples, pct):
        value = percentile(samples, pct)
        assert min(samples) <= value <= max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2,
                    max_size=50))
    def test_monotone_in_pct(self, samples):
        assert percentile(samples, 25) <= percentile(samples, 75)


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        assert geometric_mean([3.0, 3.0, 3.0]) == pytest.approx(3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestDistribution:
    def test_summary(self):
        dist = Distribution()
        for v in (1.0, 2.0, 3.0):
            dist.add(v)
        assert dist.count == 3
        assert dist.mean == 2.0
        assert dist.total == 6.0

    def test_p95(self):
        dist = Distribution()
        for v in range(1, 101):
            dist.add(float(v))
        assert dist.p95 == pytest.approx(95.05)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            Distribution().mean


class TestDistributionAddMany:
    def test_matches_add_loop(self):
        import numpy as np
        loop, bulk = Distribution(), Distribution()
        values = [3.0, 1.0, 2.0, 5.0]
        for v in values:
            loop.add(v)
        bulk.add_many(np.asarray(values))
        assert bulk.samples == loop.samples
        assert bulk.count == 4

    def test_accepts_iterables_and_2d_arrays(self):
        import numpy as np
        dist = Distribution()
        dist.add_many([1.0, 2.0])
        dist.add_many(np.arange(4, dtype=np.float64).reshape(2, 2))
        assert dist.samples.tolist() == [1.0, 2.0, 0.0, 1.0, 2.0, 3.0]

    def test_empty_is_noop(self):
        dist = Distribution()
        dist.add(1.0)
        _ = dist.percentile(50.0)  # warm the sort cache
        dist.add_many([])
        assert dist.count == 1

    def test_invalidates_percentile_cache(self):
        dist = Distribution()
        dist.add_many([1.0, 2.0, 3.0])
        assert dist.percentile(100.0) == 3.0
        dist.add_many([10.0])
        assert dist.percentile(100.0) == 10.0
        # and the interleaved form: cached sort, then bulk append
        assert dist.percentile(50.0) == 2.5

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9),
                    min_size=1, max_size=50))
    def test_percentiles_identical_to_streaming(self, values):
        loop, bulk = Distribution(), Distribution()
        for v in values:
            loop.add(v)
        bulk.add_many(values)
        for pct in (0.0, 50.0, 95.0, 100.0):
            assert bulk.percentile(pct) == loop.percentile(pct)


class TestStatsRegistry:
    def test_add_and_get(self):
        stats = StatsRegistry()
        stats.add("a.b")
        stats.add("a.b", 2.0)
        assert stats.get("a.b") == 3.0

    def test_get_default(self):
        assert StatsRegistry().get("missing", 7.0) == 7.0

    def test_prefix_snapshot(self):
        stats = StatsRegistry()
        stats.add("dram.reads")
        stats.add("dram.writes")
        stats.add("cxl.bytes")
        assert set(stats.counters("dram.")) == {"dram.reads", "dram.writes"}

    def test_snapshot_sorted_regardless_of_insertion(self):
        stats = StatsRegistry()
        for key in ("z.bytes", "a.hits", "m.misses"):
            stats.add(key, 1.0)
        snap = stats.snapshot()
        assert list(snap) == ["a.hits", "m.misses", "z.bytes"]

    def test_snapshot_prefix_filter(self):
        """The prefix filter is ``counters``'; the snapshot is all of them."""
        stats = StatsRegistry()
        stats.add("dram.reads", 2.0)
        stats.add("cxl.bytes", 9.0)
        assert stats.counters("dram.") == {"dram.reads": 2.0}
        assert stats.snapshot() == {"cxl.bytes": 9.0, "dram.reads": 2.0}


def _attached():
    """A sampler and the step series attached to it."""
    sampler = IntervalSampler()
    return sampler, sampler.attach_series()


class TestIntervalSampler:
    def test_series_step_function(self):
        sampler, series = _attached()
        sampler.record(0.0, 0.0)
        sampler.record(10.0, 1.0)
        steps = series.series(0.0, 20.0, 5)
        values = [v for _, v in steps]
        assert values == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_time_weighted_mean(self):
        sampler, series = _attached()
        sampler.record(0.0, 0.0)
        sampler.record(5.0, 1.0)
        # 0 for half the window, 1 for the other half
        assert series.time_weighted_mean(0.0, 10.0) == pytest.approx(0.5)
        assert sampler.mean(10.0) == pytest.approx(0.5)

    def test_out_of_order_clamped(self):
        sampler, series = _attached()
        sampler.record(5.0, 1.0)
        sampler.record(3.0, 2.0)   # clamped to 5.0
        assert series.points[-1][0] == 5.0

    def test_points_read_back_as_recorded_across_growth(self):
        (sampler, series), expected, last = _attached(), [], 0.0
        for i in range(1000):
            t = float(i * 7 % 13 + i)              # out of order at times
            sampler.record(t, i / 3)
            last = max(last, t)
            expected.append((last, i / 3))
        assert series.points == expected
        assert series._flat.itemsize * 2 == 16        # a point

    @given(
        times=st.lists(st.floats(0.0, 100.0), max_size=40),
        window=st.tuples(st.floats(-5.0, 105.0), st.floats(0.01, 50.0)),
        on_a_point=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_time_weighted_mean_equals_the_full_scan(self, times, window,
                                                     on_a_point):
        sampler, series = _attached()
        for i, t in enumerate(times):
            sampler.record(t, (i * 7 % 5) / 4)         # clamps into order
        start, span = window
        if on_a_point and series.points:    # the ``t == start`` boundary
            start = series.points[len(series.points) // 2][0]
        end = start + span

        # the scan from point 0 that the bisected start replaced
        area, current, prev_t = 0.0, 0.0, start
        for t, v in series.points:
            if t < start:
                current = v
                continue
            if t > end:
                break
            area += current * (t - prev_t)
            prev_t, current = t, v
        area += current * (end - prev_t)
        assert series.time_weighted_mean(start, end) == area / (end - start)

    @given(times=st.lists(st.floats(0.0, 100.0), max_size=40),
           tail=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_mean_is_the_series_mean_from_zero_to_the_bit(self, times,
                                                          tail):
        # what fig 6a's headline reads (the integral) against what the
        # points it no longer keeps would give
        sampler, series = _attached()
        for i, t in enumerate(times):
            sampler.record(t, (i * 7 % 5) / 4)
        end = max(times, default=0.0) + tail + 1.0
        assert sampler.mean(end) == series.time_weighted_mean(0.0, end)

    def test_keeps_no_point_unless_a_series_is_attached(self):
        sampler = IntervalSampler()
        for i in range(100):
            sampler.record(float(i), i % 3 / 2)
        assert sampler.series is None
        assert not hasattr(sampler, "__dict__")
        with pytest.raises(ValueError):
            sampler.mean(50.0)              # before the last point

    def test_series_validation(self):
        _, series = _attached()
        with pytest.raises(ValueError):
            series.series(0.0, 0.0, 5)
        with pytest.raises(ValueError):
            series.series(0.0, 1.0, 0)


class TestTimeline:
    def test_windowed_counter_deltas(self):
        registry = StatsRegistry()
        registry.add("serve.a.served", 3)
        timeline = registry.timeline("serve.")
        registry.add("serve.a.served", 5)
        window = timeline.mark(100.0)
        assert window.deltas == {"serve.a.served": 5.0}
        assert (window.start_ns, window.end_ns) == (0.0, 100.0)
        registry.add("serve.b.shed", 2)
        window = timeline.mark(250.0)
        assert window.deltas == {"serve.b.shed": 2.0}

    def test_prefix_filters_other_counters(self):
        registry = StatsRegistry()
        timeline = registry.timeline("serve.")
        registry.add("dram.row_hits", 7)
        registry.add("serve.x.served", 1)
        assert timeline.mark(10.0).deltas == {"serve.x.served": 1.0}

    def test_backwards_mark_rejected(self):
        registry = StatsRegistry()
        timeline = registry.timeline()
        timeline.mark(50.0)
        with pytest.raises(ValueError):
            timeline.mark(10.0)

    def test_suffix_sum_and_rates(self):
        registry = StatsRegistry()
        timeline = registry.timeline("serve.")
        registry.add("serve.a.served", 3)
        registry.add("serve.b.served", 2)
        registry.add("serve.a.shed", 1)
        window = timeline.mark(1_000.0)
        assert window.sum_suffix(".served") == 5.0
        assert window.rate_suffix_per_s(".served") == pytest.approx(5e6)

    def test_start_ns_offsets_first_window(self):
        registry = StatsRegistry()
        timeline = registry.timeline(start_ns=700.0)
        registry.add("served", 1)
        window = timeline.mark(1_700.0)
        assert window.start_ns == 700.0
        assert window.span_ns == 1_000.0
