"""End-to-end serving engine behavior on a real cluster runtime."""

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    BatchPolicy,
    ServingEngine,
    TenantSpec,
)
from repro.serve.autoscaler import Autoscaler


def _mixed_tenants(requests=30):
    return [
        TenantSpec("kv", "kvstore",
                   arrivals=ArrivalSpec("poisson", rate_rps=4e6,
                                        requests=requests),
                   qos_class="interactive", slo_ns=60_000.0, size=512),
        TenantSpec("scan", "olap",
                   arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                        requests=max(8, requests // 3)),
                   qos_class="interactive", size=1 << 12, slices=4),
        TenantSpec("bulk", "vecadd",
                   arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                        requests=max(8, requests // 3)),
                   qos_class="batch", size=1 << 10, slices=4),
    ]


class TestServingRun:
    def test_all_tenants_served_and_correct(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        report = ServingEngine(platform, _mixed_tenants()).run()
        assert report.correct
        assert report.tenant("kv").served == 30
        assert report.tenant("scan").served == 10
        assert report.tenant("bulk").served == 10
        assert report.served == report.offered == 50

    def test_percentiles_ordered_and_slo_accounted(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        report = ServingEngine(platform, _mixed_tenants()).run()
        assert report.p50_ns <= report.p95_ns <= report.p99_ns
        kv = report.tenant("kv")
        assert 0.0 <= kv.slo_attainment <= 1.0
        assert kv.goodput_rps <= kv.throughput_rps + 1e-9

    def test_render_mentions_every_tenant(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        report = ServingEngine(platform, _mixed_tenants(12)).run()
        text = report.render()
        for tenant in ("kv", "scan", "bulk"):
            assert tenant in text
        assert "aggregate" in text

    def test_deterministic_across_processes_like_runs(self):
        def run():
            platform = make_cluster_platform(num_devices=2,
                                             backend="batched")
            return ServingEngine(platform, _mixed_tenants(20)).run()
        first, second = run(), run()
        assert first.aggregate.samples == second.aggregate.samples

    def test_seed_changes_traffic(self):
        def run(seed):
            platform = make_cluster_platform(
                num_devices=2, backend="batched",
                cluster=ClusterConfig(num_devices=2, seed=seed),
            )
            return ServingEngine(platform, _mixed_tenants(20)).run()
        assert (run(1).aggregate.samples != run(2).aggregate.samples)

    def test_timeline_windows_cover_all_served(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        report = ServingEngine(platform, _mixed_tenants(20)).run()
        served_from_windows = sum(
            v for w in report.timeline.windows
            for k, v in w.deltas.items() if k.endswith(".served")
        )
        assert served_from_windows == report.served

    def test_trace_cache_counters_are_per_run_deltas(self):
        # two engines sharing one platform must each report only their own
        # run's cache traffic, not the platform's cumulative counters
        platform = make_cluster_platform(num_devices=1, backend="batched")

        def tenants(name):
            return [TenantSpec(name, "vecadd",
                               arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                                    requests=12),
                               size=1 << 10, slices=4)]
        first = ServingEngine(platform, tenants("one")).run()
        second = ServingEngine(platform, tenants("two")).run()
        cumulative = (platform.stats.get("exec.trace_cache_hits")
                      + platform.stats.get("exec.trace_cache_misses"))
        first_total = first.trace_cache_hits + first.trace_cache_misses
        second_total = second.trace_cache_hits + second.trace_cache_misses
        assert first_total > 0 and second_total > 0
        assert first_total + second_total == cumulative

    def test_timeline_starts_at_run_epoch(self):
        platform = make_cluster_platform(num_devices=1, backend="batched")
        report = ServingEngine(platform, _mixed_tenants(8)).run()
        # workload setup advances the simulator before serving begins;
        # the first window must not stretch back to t=0
        assert report.timeline.windows[0].start_ns > 0.0

    def test_engine_runs_once(self):
        platform = make_cluster_platform(num_devices=1, backend="batched")
        engine = ServingEngine(platform, _mixed_tenants(6))
        engine.run()
        with pytest.raises(ConfigError):
            engine.run()


class TestBatchingEquivalence:
    def test_identical_results_and_fewer_launches(self):
        """Two tenants x 96 one-slice launch shapes; fusing 8 slices per
        launch collapses the shape population the trace cache records,
        so batched wfq beats unbatched fifo on throughput and traces a
        fraction of the shapes, with byte-identical results."""
        def run(scheduler, max_batch):
            platform = make_cluster_platform(num_devices=2,
                                             placement="interleaved",
                                             backend="batched")
            tenants = [
                TenantSpec(name, "vecadd",
                           arrivals=ArrivalSpec("poisson", rate_rps=1e7,
                                                requests=192),
                           size=1 << 10, slices=96)
                for name in ("web", "analytics")
            ]
            engine = ServingEngine(
                platform, tenants, scheduler=scheduler,
                batch=BatchPolicy(max_batch=max_batch, max_wait_ns=2_000.0),
            )
            report = engine.run()
            return report, engine.result_snapshots()

        unbatched, snap_u = run("fifo", 1)
        batched, snap_b = run("wfq", 8)
        assert unbatched.correct and batched.correct
        assert snap_u == snap_b
        assert batched.launches < unbatched.launches
        assert batched.mean_batch > 1.5
        assert batched.throughput_rps / unbatched.throughput_rps >= 1.1
        assert batched.trace_cache_misses * 4 <= unbatched.trace_cache_misses

    def test_kvstore_scatter_batching_fuses_requests(self):
        platform = make_cluster_platform(num_devices=1, backend="batched")
        tenants = [
            TenantSpec("kv", "kvstore",
                       arrivals=ArrivalSpec("poisson", rate_rps=1e7,
                                            requests=20),
                       size=256),
        ]
        report = ServingEngine(
            platform, tenants, batch=BatchPolicy(max_batch=8),
        ).run()
        assert report.correct
        assert report.tenant("kv").served == 20
        assert report.launches < 20
        assert report.mean_batch > 1.0


class TestTraceCacheInvariance:
    """The trace cache can change wall-clock time, never results: a
    shape-churn serving run (more slices than an entry-count bound of 64
    would hold) reads the same with the cache as with a cache of
    ``capacity`` 0, in every result byte, latency percentile and counter
    but the cache's own."""

    @staticmethod
    def _run(cached: bool):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        if not cached:
            for device in platform.devices:
                device.backend.trace_cache.capacity = 0
        tenants = [
            TenantSpec(name, "vecadd",
                       arrivals=ArrivalSpec("poisson", rate_rps=1e7,
                                            requests=160),
                       size=1 << 10, slices=72)
            for name in ("web", "analytics")
        ]
        engine = ServingEngine(platform, tenants, scheduler="fifo",
                               batch=BatchPolicy(max_batch=1))
        report = engine.run()
        counters = {key: value
                    for key, value in platform.stats.snapshot().items()
                    if not key.startswith("exec.trace_cache")}
        return report, engine.result_snapshots(), counters

    def test_uncached_run_is_identical_but_for_the_cache_counters(self):
        cached, snap_c, counters_c = self._run(cached=True)
        uncached, snap_u, counters_u = self._run(cached=False)
        assert cached.correct and uncached.correct
        assert cached.trace_cache_hit_rate > 0.5
        assert cached.trace_cache_evictions == 0
        assert uncached.trace_cache_hits == 0
        assert snap_c == snap_u
        assert (cached.p50_ns, cached.p99_ns) == (uncached.p50_ns,
                                                 uncached.p99_ns)
        assert counters_c == counters_u


class TestRawClusterCapacity:
    """FIFO, one request per launch: the engine as a plain open-loop
    driver of the cluster (what the scaling experiments measure)."""

    @staticmethod
    def _run(num_devices, tenants):
        platform = make_cluster_platform(num_devices=num_devices,
                                         placement="interleaved",
                                         backend="batched")
        report = ServingEngine(
            platform, tenants, scheduler="fifo",
            batch=BatchPolicy(max_batch=1, max_wait_ns=0.0),
            monitoring=False).run()
        assert report.correct
        return report

    def test_four_devices_at_least_3x(self):
        saturating = ArrivalSpec("poisson", rate_rps=1e7, requests=8)
        tenants = [TenantSpec("vec", "vecadd", arrivals=saturating,
                              size=1 << 16, slices=8),
                   TenantSpec("olap", "olap", arrivals=saturating,
                              size=1 << 16, slices=8)]
        one, four = self._run(1, tenants), self._run(4, tenants)
        for name in ("vec", "olap"):
            assert (four.tenant(name).throughput_rps
                    / one.tenant(name).throughput_rps) >= 3.0

    def test_open_loop_backlog_raises_latency(self):
        # same work at 1000x the arrival rate: queueing must show in p95
        def run(rate):
            return self._run(1, [TenantSpec(
                "scan", "olap", size=1 << 15, slices=4,
                arrivals=ArrivalSpec("poisson", rate_rps=rate, requests=16),
            )])
        assert run(1e7).p95_ns > 2 * run(1e4).p95_ns


class TestClosedLoop:
    def test_closed_loop_serves_full_budget(self):
        platform = make_cluster_platform(num_devices=1, backend="batched")
        tenants = [
            TenantSpec("workers", "vecadd",
                       arrivals=ArrivalSpec("closed", requests=24, clients=3,
                                            think_ns=1_000.0),
                       size=1 << 10, slices=4),
        ]
        report = ServingEngine(platform, tenants).run()
        assert report.correct
        assert report.tenant("workers").served == 24


class TestAutoscaler:
    def test_hysteresis_moves_active_set(self):
        scaler = Autoscaler(AutoscalePolicy(enabled=True, min_devices=1),
                            num_devices=4)
        assert scaler.active == 1
        assert scaler.observe(1.0, 0.95) == 2
        assert scaler.observe(2.0, 0.95) == 3
        assert scaler.observe(3.0, 0.5) == 3       # inside the deadband
        assert scaler.observe(4.0, 0.1) == 2
        assert scaler.scale_ups == 2 and scaler.scale_downs == 1

    def test_disabled_pins_full_cluster(self):
        scaler = Autoscaler(AutoscalePolicy(enabled=False), num_devices=4)
        assert scaler.active == 4
        assert scaler.observe(1.0, 0.0) == 4

    def test_engine_scales_up_under_burst(self):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        tenants = [
            TenantSpec("burst", "vecadd",
                       arrivals=ArrivalSpec("bursty", rate_rps=2e5,
                                            burst_rate_rps=2e7,
                                            dwell_ns=100_000.0, requests=96),
                       size=1 << 14, slices=8),
        ]
        report = ServingEngine(
            platform, tenants,
            batch=BatchPolicy(max_batch=1),
            autoscale=AutoscalePolicy(enabled=True, min_devices=1,
                                      interval_ns=10_000.0),
            inflight_per_device=2,
        ).run()
        assert report.correct
        assert report.scale_ups >= 1
        assert max(v for _, v in report.active_device_series) >= 2

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AutoscalePolicy(min_devices=0)
        with pytest.raises(ConfigError):
            Autoscaler(AutoscalePolicy(enabled=True, min_devices=8),
                       num_devices=4)


class TestEnvKnobs:
    @staticmethod
    def _engine(**kwargs):
        platform = make_cluster_platform(num_devices=1, backend="batched")
        return ServingEngine(platform, [TenantSpec("t", "vecadd")], **kwargs)

    def test_scheduler_env_resolved_and_validated(self):
        assert self._engine().scheduler.policy == "wfq"
        # a caller forwarding no choice of its own (m2bench) gets the default
        assert self._engine(scheduler=None).scheduler.policy == "wfq"
        assert self._engine(scheduler="fifo").scheduler.policy == "fifo"
        with pytest.raises(ConfigError, match="'lottery' \\(from scheduler\\)"):
            self._engine(scheduler="lottery")

    def test_batch_env_resolved_and_validated(self):
        assert self._engine().batcher.policy == BatchPolicy(8, 2000.0)
        explicit = BatchPolicy(max_batch=2, max_wait_ns=0.0)
        assert self._engine(batch=explicit).batcher.policy is explicit
        for bad in ("many", 0):
            with pytest.raises(ConfigError, match="max_batch argument"):
                self._engine(batch=BatchPolicy(max_batch=bad))

    def test_batch_policy_rejects_non_finite_wait(self):
        for wait in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ConfigError, match="max_wait_ns argument"):
                BatchPolicy(max_wait_ns=wait)
        with pytest.raises(ConfigError, match="max_batch argument"):
            BatchPolicy(max_batch=0)

    @pytest.mark.parametrize("field, value", [
        ("max_batch", 2.7), ("max_batch", True), ("max_batch", 4.0),
        ("max_wait_ns", True), ("max_wait_ns", "1500"),
    ])
    def test_batch_policy_rejects_fractional_and_boolean_values(
            self, field, value):
        # a fractional width would reach range() in RequestQueue.head_run
        with pytest.raises(ConfigError, match=f"{field} argument"):
            BatchPolicy(**{field: value})

    def test_monitoring_must_be_a_bool(self):
        with pytest.raises(ConfigError, match="monitoring argument of "
                                              "ServingEngine must be"):
            self._engine(monitoring="yes")

    def test_nan_stats_window_rejected(self):
        with pytest.raises(ConfigError, match="stats_window_ns"):
            self._engine(stats_window_ns=float("nan"))

    def test_tenant_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec("x", "graphql")
        with pytest.raises(ConfigError):
            TenantSpec("x", "vecadd", qos_class="realtime")
        with pytest.raises(ConfigError):
            TenantSpec("x", "vecadd", weight=0.0)
        platform = make_cluster_platform(num_devices=1, backend="batched")
        with pytest.raises(ConfigError):
            ServingEngine(platform, [])
        specs = [TenantSpec("same", "vecadd"), TenantSpec("same", "olap")]
        with pytest.raises(ConfigError):
            ServingEngine(platform, specs)
