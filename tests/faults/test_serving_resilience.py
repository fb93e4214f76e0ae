"""Serving-tier resilience: retries, hedging, accounting identity and
byte-level determinism under fault plans."""

import pytest

from repro.cluster import make_cluster_platform
from repro.errors import ConfigError
from repro.faults import FaultEvent, FaultPlan
from repro.serve import (
    ArrivalSpec,
    RetryPolicy,
    ServingEngine,
    TenantSpec,
)

KILL_MID_TRAFFIC = FaultPlan(events=(
    FaultEvent("device_fail", at_ns=3_000.0, device=1),
))


def _scan_tenant(retries=0, placement=None, requests=16,
                 slo_ns=5_000_000.0):
    return TenantSpec(
        "scan", "olap",
        arrivals=ArrivalSpec("poisson", rate_rps=2e6, requests=requests),
        qos_class="interactive", slo_ns=slo_ns, size=1 << 17, slices=4,
        placement=placement,
        retry=RetryPolicy(max_retries=retries, backoff_ns=500.0,
                          jitter_ns=200.0),
    )


def _run(tenants, plan=None, num_devices=4, **engine_kwargs):
    platform = make_cluster_platform(num_devices=num_devices,
                                     backend="batched")
    if plan is not None:
        platform.runtime.arm_faults(plan)
    engine = ServingEngine(platform, tenants, **engine_kwargs)
    report = engine.run()
    return platform, engine, report


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_ns=-1.0)

    def test_exponential_backoff(self):
        policy = RetryPolicy(max_retries=3, backoff_ns=100.0,
                             backoff_factor=2.0)
        class NoJitter:
            def uniform(self, lo, hi):
                return 0.0
        assert policy.delay_ns(0, NoJitter()) == 100.0
        assert policy.delay_ns(2, NoJitter()) == 400.0


class TestFailureAccounting:
    def test_no_retry_fails_stranded_requests(self):
        platform, _, report = _run([_scan_tenant(retries=0)],
                                   plan=KILL_MID_TRAFFIC)
        tenant = report.tenant("scan")
        assert tenant.failed > 0
        assert tenant.served + tenant.failed == tenant.offered
        assert tenant.accounting_ok
        assert tenant.correct
        assert platform.stats.get("recovery.failed_launches") >= 1

    def test_retries_recover_everything(self):
        _, _, report = _run([_scan_tenant(retries=3)],
                            plan=KILL_MID_TRAFFIC)
        tenant = report.tenant("scan")
        assert tenant.failed == 0
        assert tenant.served == tenant.offered
        assert tenant.retried > 0
        assert tenant.accounting_ok
        assert tenant.correct

    def test_retry_beats_no_retry_under_kill(self):
        """The acceptance bar: replicated + deadline-aware retries strictly
        above the no-retry baseline when a device dies mid-traffic."""
        results = {}
        for retries in (0, 3):
            _, _, report = _run(
                [_scan_tenant(retries=retries, placement="replicated")],
                plan=KILL_MID_TRAFFIC,
            )
            results[retries] = report.tenant("scan")
        assert results[3].served > results[0].served
        assert results[3].slo_attainment > results[0].slo_attainment

    def test_poison_is_terminal_not_retried(self):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        runtime = platform.runtime
        spec = _scan_tenant(retries=3, requests=8)
        engine = ServingEngine(platform, [spec])
        # poison the tenant's data region before traffic starts
        sweep = engine.tenants["scan"].workload.impl
        runtime.arm_faults(FaultPlan(events=(
            FaultEvent("poison", at_ns=0.0, base=sweep.addrs[0],
                       size=sweep.inputs[0].nbytes),
        )))
        report = engine.run()
        tenant = report.tenant("scan")
        assert tenant.failed == tenant.offered
        assert tenant.retried == 0
        assert tenant.accounting_ok

    def test_accounting_identity_render_columns(self):
        _, _, report = _run([_scan_tenant(retries=0)],
                            plan=KILL_MID_TRAFFIC)
        text = report.render()
        assert "fail" in text and "retry" in text


class TestHedging:
    STALLS = FaultPlan(events=(
        FaultEvent("device_stall", at_ns=500.0, device=0,
                   duration_ns=50_000.0),
        FaultEvent("device_stall", at_ns=500.0, device=1,
                   duration_ns=50_000.0),
    ))

    def _kv(self, hedge_delay_ns):
        return TenantSpec(
            "kv", "kvstore",
            arrivals=ArrivalSpec("poisson", rate_rps=1e6, requests=40),
            qos_class="interactive", slo_ns=200_000.0, size=512,
            placement="replicated",
            retry=RetryPolicy(max_retries=2, backoff_ns=500.0),
            hedge_delay_ns=hedge_delay_ns,
        )

    def test_hedges_fire_and_win_under_stalls(self):
        _, _, report = _run([self._kv(1_000.0)], plan=self.STALLS)
        tenant = report.tenant("kv")
        assert tenant.hedged > 0
        assert tenant.hedged_won > 0
        assert tenant.served == tenant.offered
        assert tenant.accounting_ok
        assert tenant.correct

    def test_zero_delay_disables_hedging(self):
        _, _, report = _run([self._kv(0.0)], plan=self.STALLS)
        tenant = report.tenant("kv")
        assert tenant.hedged == 0
        assert tenant.correct

    def test_non_replicated_tenant_never_hedges(self):
        spec = TenantSpec(
            "kv", "kvstore",
            arrivals=ArrivalSpec("poisson", rate_rps=1e6, requests=20),
            qos_class="interactive", slo_ns=200_000.0, size=512,
            placement="interleaved", hedge_delay_ns=1_000.0,
        )
        _, _, report = _run([spec], plan=self.STALLS)
        assert report.tenant("kv").hedged == 0


class TestDeterminism:
    def _kill_run(self):
        platform, engine, report = _run(
            [_scan_tenant(retries=3, placement="replicated")],
            plan=KILL_MID_TRAFFIC,
        )
        return (engine.result_snapshots(), report.aggregate.samples,
                dict(platform.stats.snapshot()))

    def test_same_seed_same_plan_byte_identical(self):
        first, second = self._kill_run(), self._kill_run()
        assert first[0] == second[0]       # result-region bytes
        assert first[1] == second[1]       # latency samples
        assert first[2] == second[2]       # every counter

    def test_zero_fault_plan_identical_to_disabled(self):
        def run(arm):
            platform = make_cluster_platform(num_devices=4,
                                             backend="batched")
            if arm:
                platform.runtime.arm_faults(FaultPlan.none())
            engine = ServingEngine(platform, [_scan_tenant(requests=16)])
            report = engine.run()
            return (engine.result_snapshots(), report.aggregate.samples,
                    platform.sim.now,
                    {k: v for k, v in platform.stats.snapshot().items()
                     if not k.startswith("fault.")})
        armed, disabled = run(True), run(False)
        assert armed == disabled

    def test_different_seed_changes_fault_timing_outcome(self):
        from repro.config import ClusterConfig

        def run(seed):
            platform = make_cluster_platform(
                num_devices=4, backend="batched",
                cluster=ClusterConfig(num_devices=4, seed=seed),
            )
            platform.runtime.arm_faults(KILL_MID_TRAFFIC)
            report = ServingEngine(
                platform, [_scan_tenant(retries=3)]
            ).run()
            return report.aggregate.samples
        assert run(1) != run(2)
