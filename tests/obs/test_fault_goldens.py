"""Golden digests of what a fault leaves behind in the monitoring stack.

Recorded at commit 0b1e88f, before the fault lifecycle (injected,
detected, alerted, recovered; device- or partition-scoped) was written
as one table in ``faults/plan.py``: the four modules that named each
stage separately must, reading the table, still produce byte for byte
the same incident bundles, flight-recorder rings, ``correlate`` rows,
``grade_against_plan`` dicts and health views.  Five monitored serving runs cover every row of
the table: the ``resilience`` chaos plan (kill + stall + flap), an
overlapping stall / flap / kill of one device, a partition kill failed
over to the spare partition, a partition stall, and two poison ranges
(one partition-scoped, one not).
"""

import hashlib
import json

import pytest

from repro.cluster import make_cluster_platform
from repro.experiments.resilience import _chaos_plans
from repro.faults import FaultEvent, FaultPlan
from repro.obs.incidents import correlate, grade_against_plan
from repro.serve import ArrivalSpec, RetryPolicy, ServingEngine, TenantSpec

SPEC = "rt:1,batch:2,spare:1"

def _scan_tenant(placement):
    return TenantSpec(
        "scan", "olap",
        arrivals=ArrivalSpec("poisson", rate_rps=2e6, requests=16),
        qos_class="interactive", slo_ns=5_000_000.0, size=1 << 17,
        slices=4, placement=placement,
        retry=RetryPolicy(max_retries=3, backoff_ns=500.0,
                          jitter_ns=200.0, deadline_aware=True),
    )


def _pinned_tenants():
    return [
        TenantSpec("rt", "kvstore",
                   arrivals=ArrivalSpec("poisson", rate_rps=2e6,
                                        requests=32),
                   qos_class="interactive", slo_ns=150_000.0, size=256,
                   placement="replicated", partition="rt",
                   retry=RetryPolicy(max_retries=2, backoff_ns=500.0)),
        TenantSpec("bulk", "vecadd",
                   arrivals=ArrivalSpec("poisson", rate_rps=2e6,
                                        requests=12),
                   qos_class="batch", size=1 << 12, partition="batch",
                   retry=RetryPolicy(max_retries=2, backoff_ns=1_000.0)),
    ]


def _poison_plan(runtime):
    """Poison the first shard of each tenant: the batch tenant's scoped to
    its partition, the interactive tenant's unscoped."""
    first = {}
    for shard in runtime.allocator.maps:
        first.setdefault(shard.partition, shard.base)
    return FaultPlan(events=(
        FaultEvent("poison", at_ns=2_000.0, base=first["batch"], size=64,
                   partition="batch"),
        FaultEvent("poison", at_ns=6_000.0, device=1, base=first["rt"],
                   size=64),
    ))


#: scenario -> (devices, partitions, tenants, plan of the runtime)
SCENARIOS = {
    "resilience_chaos": (
        4, None, lambda: [_scan_tenant("blocked")],
        lambda runtime: _chaos_plans(16 / 2e6 * 1e9)["chaos"]),
    "overlapping_stall_flap_kill": (
        4, None, lambda: [_scan_tenant("replicated")],
        lambda runtime: FaultPlan(events=(
            FaultEvent("device_stall", at_ns=1_000.0, device=1,
                       duration_ns=20_000.0),
            FaultEvent("link_flap", at_ns=2_000.0, device=1,
                       duration_ns=3_000.0),
            FaultEvent("device_stall", at_ns=1_000.0, device=2,
                       duration_ns=30_000.0),
            FaultEvent("device_fail", at_ns=8_000.0, device=2),
        ))),
    "partition_kill": (
        2, SPEC, _pinned_tenants,
        lambda runtime: FaultPlan(events=(
            FaultEvent("device_fail", at_ns=4_000.0, device=0,
                       partition="batch"),
        ))),
    "partition_stall": (
        2, SPEC, _pinned_tenants,
        lambda runtime: FaultPlan(events=(
            FaultEvent("device_stall", at_ns=2_000.0, device=0,
                       duration_ns=6_000.0, partition="batch"),
        ))),
    "poison_ranges": (2, SPEC, _pinned_tenants, _poison_plan),
}

def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def _digests(scenario: str) -> dict:
    devices, partitions, tenants, plan = SCENARIOS[scenario]
    platform = make_cluster_platform(num_devices=devices, backend="batched",
                                     partitions=partitions)
    engine = ServingEngine(platform, tenants(), monitoring=True)
    runtime = platform.runtime
    injector = runtime.arm_faults(plan(runtime))
    engine.run()
    monitoring = engine.monitoring
    alerts = monitoring.monitor.alerts
    ring = monitoring.recorder.snapshot()
    parts = {
        "bundles": monitoring.reporter.bundles,
        "ring": [ring, [alert.to_dict() for alert in alerts]],
        "correlate": correlate(injector, ring, alerts),
        "grade": grade_against_plan(injector, alerts),
        "health": [injector.snapshot(), injector.health.render(),
                   platform.stats.counters("recovery.")],
    }
    return {part: hashlib.sha256(_canonical(value)).hexdigest()
            for part, value in parts.items()}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fault_lifecycle_matches_recorded_golden(scenario, golden):
    golden(_digests(scenario))
