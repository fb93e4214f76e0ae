"""ServingStats: one retained latency store per tenant (its report's)
plus the cross-tenant aggregate, both in completion order and both the
engine's: the platform's registry gets counters only."""

from itertools import groupby

import pytest

from repro.cluster import make_cluster_platform
from repro.serve import ArrivalSpec, ServingEngine, ServingStats, TenantSpec
from repro.sim.stats import StatsRegistry

SPECS = [TenantSpec("a", "vecadd"), TenantSpec("b", "olap")]

#: (tenant, latency, completion time, within SLO) in completion order
SERVED = [("a", 300.0, 1_300.0, True), ("b", 50.0, 1_400.0, True),
          ("a", 900.0, 2_000.0, False), ("a", 120.0, 2_050.0, True),
          ("b", 75.0, 2_100.0, False), ("a", 410.0, 2_500.0, True)]


def _land(chunk):
    """Feed SERVED through served_batch, at most ``chunk`` per call."""
    registry = StatsRegistry()
    stats = ServingStats(registry, SPECS)
    stats.start(1_000.0)
    for tenant, rows in groupby(SERVED, key=lambda row: row[0]):
        rows = list(rows)
        for i in range(0, len(rows), chunk):
            _, latencies, completions, within_slo = zip(*rows[i:i + chunk])
            stats.served_batch(tenant, list(latencies), list(completions),
                               list(within_slo))
    stats.mark_window(3_000.0)
    return registry, stats


@pytest.mark.parametrize("chunk", [1, 2])
def test_chunked_batches_equal_one_call_per_run(chunk):
    whole_registry, whole = _land(len(SERVED))
    part_registry, part = _land(chunk)
    assert part.aggregate.samples == whole.aggregate.samples
    assert part.aggregate.samples.tolist() == [row[1] for row in SERVED]
    assert part_registry.counters() == whole_registry.counters()
    assert part.timeline.windows[0].deltas == whole.timeline.windows[0].deltas
    assert part.last_completion_ns == whole.last_completion_ns == 2_500.0
    for name in ("a", "b"):
        got, want = part.reports[name], whole.reports[name]
        mine = [row for row in SERVED if row[0] == name]
        assert got.latencies.samples == want.latencies.samples
        assert got.latencies.samples.tolist() == [row[1] for row in mine]
        assert got.completion_times == want.completion_times
        assert got.completion_times.tolist() == [row[2] for row in mine]
        assert got.served == want.served == len(mine)
        assert got.slo_met == want.slo_met == sum(row[3] for row in mine)
        assert got.latency_summary() == want.latency_summary()
    # the registry outlives the engine: it holds counters, no latency
    assert vars(part_registry).keys() == {"_counters"}


def test_second_engine_on_a_platform_reports_only_its_own_tail():
    platform = make_cluster_platform(num_devices=2, backend="batched")

    def run(requests):
        spec = TenantSpec("t", "vecadd", size=256, slices=4,
                          arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                               requests=requests))
        return ServingEngine(platform, [spec]).run()

    first, second = run(10), run(4)
    for report, count in ((first, 10), (second, 4)):
        tenant = report.tenant("t")
        assert tenant.served == report.served == count
        assert tenant.accounting_ok
        assert len(tenant.completion_times) == count
        assert tenant.latencies.samples == report.aggregate.samples
        assert tenant.p99_ns == report.p99_ns
    # each report keeps its own store: the finished first report did not
    # grow when the second engine served, and the platform's registry,
    # which both engines counted into, keeps no latency of either
    assert first.tenant("t").latencies is not second.tenant("t").latencies
    assert vars(platform.runtime.stats).keys() == {"_counters"}
