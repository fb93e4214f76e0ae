"""Degenerate-input guards: zero-request tenants, empty aggregates and
zero-length utilization windows report zeros instead of raising."""

from repro.obs.timeline import UtilizationSampler
from repro.serve.stats import ServingReport, TenantReport
from repro.sim.stats import Distribution, StatsRegistry


def _tenant(**overrides):
    fields = dict(name="idle", kind="olap", qos_class="batch",
                  weight=1.0, slo_ns=1_000.0)
    fields.update(overrides)
    return TenantReport(**fields)


class TestZeroRequestTenant:
    def test_latency_summary_is_zero_not_valueerror(self):
        tenant = _tenant()
        assert tenant.latency_summary() == (0.0, 0.0, 0.0)
        assert tenant.p50_ns == tenant.p99_ns == 0.0

    def test_ratio_properties_are_zero(self):
        tenant = _tenant()
        assert tenant.served == 0
        assert tenant.throughput_rps == 0.0
        assert tenant.goodput_rps == 0.0
        assert tenant.slo_attainment == 0.0
        assert tenant.mean_batch == 0.0
        assert tenant.accounting_ok          # 0 == 0

    def test_all_shed_tenant_reports_cleanly(self):
        tenant = _tenant(offered=10, shed_rate_limit=4, shed_queue_full=6)
        assert tenant.latency_summary() == (0.0, 0.0, 0.0)
        assert tenant.slo_attainment == 0.0
        assert tenant.accounting_ok

    def test_summary_cache_refreshes_after_first_serve(self):
        tenant = _tenant()
        assert tenant.p99_ns == 0.0          # primes the empty cache
        tenant.latencies.add(42.0)
        assert tenant.p99_ns == 42.0


class TestEmptyServingReport:
    def _report(self, tenants=()):
        registry = StatsRegistry()
        return ServingReport(tenants=list(tenants), span_ns=0.0,
                             aggregate=Distribution(),
                             timeline=registry.timeline(""),
                             active_device_series=[])

    def test_empty_aggregate_percentiles_are_zero(self):
        report = self._report()
        assert report.p50_ns == report.p95_ns == report.p99_ns == 0.0
        assert report.served == 0
        assert report.throughput_rps == 0.0
        assert report.slo_attainment == 0.0

    def test_render_with_zero_request_tenant_does_not_raise(self):
        report = self._report([_tenant()])
        assert "idle" in report.render()


class TestZeroLengthUtilizationWindow:
    class _Dram:
        peak_bw_bytes_per_ns = 0.0       # exercises the peak==0 guard

    class _Device:
        trace_pid = 1

        def __init__(self):
            self.stats = StatsRegistry()
            self.units = []
            self.dram = TestZeroLengthUtilizationWindow._Dram()

    def test_remarking_same_instant_is_a_noop(self):
        device = self._Device()
        sampler = UtilizationSampler([device], start_ns=0.0)
        device.stats.add("l2.read_hits", 4.0)
        sampler.mark(100.0)
        before = list(sampler.samples)
        sampler.mark(100.0)              # final tick == finish pattern
        sampler.mark(50.0)               # rewound clock: also skipped
        assert sampler.samples == before

    def test_no_marks_summary_is_empty(self):
        sampler = UtilizationSampler([self._Device()], start_ns=0.0)
        assert sampler.summary() == {}

    def test_mark_before_any_activity_reports_zero_ratios(self):
        sampler = UtilizationSampler([self._Device()], start_ns=0.0)
        sampler.mark(1_000.0)
        values = {name: value for name, _pid, _t, value in sampler.samples}
        assert all(value == 0.0 for value in values.values())
