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

# (scenario, part) -> sha256
GOLDENS = {
    ("overlapping_stall_flap_kill", "bundles"):
        "94dcbb909b073ce0107b1faa7c4c080ebf5a0705163eac2f36ba82a3745ec675",
    ("overlapping_stall_flap_kill", "ring"):
        "616bfc80e3140f0adfea119a44759a3278583a06a138670b9bbd477d2891c04d",
    ("overlapping_stall_flap_kill", "correlate"):
        "26c7a952a16477a078196efcae6fb0829905437cdb3b04472fdcbdd7ea0febd9",
    ("overlapping_stall_flap_kill", "grade"):
        "e4b64ec4100942d31bf22a3df262da7a0d928e2ba2540d1dde97fe042fb45eb4",
    ("overlapping_stall_flap_kill", "health"):
        "c2e04e0ed165f3c94efc3adb70ef43321f5a9e2a2f4d82c21aa99dbe489d7c85",
    ("partition_kill", "bundles"):
        "d71b5754910aca424fa52250e05a8eb3207c98783c41f506dffd1c25aa9dfa40",
    ("partition_kill", "ring"):
        "8fcff3bec7bc508b0cac68c6dafe882296bfb8852838fbe8ae577df47ec4b2eb",
    ("partition_kill", "correlate"):
        "4e6ef528916a6b40194467a516275ccebb1a290e5a3ca2c25a3dc13db69ca1a6",
    ("partition_kill", "grade"):
        "1511ad41385575e9c7fa6db1a3f1f07392b2420ae32245d6fae6dba3af6c9cbd",
    ("partition_kill", "health"):
        "6c3157bd6c6f46c33ca143e81ad879334e62857710b0aef54cb2506a184292b1",
    ("partition_stall", "bundles"):
        "bbf4ae8b684260f74803fb28306c14ed328c80cd0ec9b5e3388b0d428c79fac0",
    ("partition_stall", "ring"):
        "d574eb110436a7ab9bf5a084dd94c21c446bd83480d47b297e64dbecaf76d520",
    ("partition_stall", "correlate"):
        "f9c2cb6b558040acf7300ef456618aa601f8c80f72ba230dcf36d3e72fad2f32",
    ("partition_stall", "grade"):
        "a51323d3865d4d869a2620641857cdcf3cd2acee4dd3594be11b1c272877dece",
    ("partition_stall", "health"):
        "c16e398612ee9af95a5139c4e26493f1cbe41666c3d3754f8508852387bdf268",
    ("poison_ranges", "bundles"):
        "6e5d68e0f4b5a556fb8bc3ebf9f67ccf5fb69573f0929fc8f7cba5a12e5973d7",
    ("poison_ranges", "ring"):
        "8e7fd171cfbcb394da91bb33aa96ddfa9d7310b820d80fb43db2a2879cad06ad",
    ("poison_ranges", "correlate"):
        "b85f863ba9d9de57e434a767c7b14b017caba0e5853133adb5f2f15b20316aab",
    ("poison_ranges", "grade"):
        "75d8918802d7459336ae1a56964c9c3c767153163d64d49b051c9e25d17a4895",
    ("poison_ranges", "health"):
        "b9ca092c928128d70e07afb2fa14f5f463e6b2133074d75375294280132df0ac",
    ("resilience_chaos", "bundles"):
        "f57b8b1734ed8a9ab894c9baac2371ad14fc5d68c4adcd9465bf9088c889802f",
    ("resilience_chaos", "ring"):
        "8e9240b3c06c035fd40e754b9f3ccde25cb8a7cb6f0610f71b11e2994232fec9",
    ("resilience_chaos", "correlate"):
        "a58018066518410bf1541a95b3c077df0be37781bb94d0a416bea5dc405849cb",
    ("resilience_chaos", "grade"):
        "da4d8297ffceade08de63cbe4ee4a8419c003f684d37a1aff83ef60897146153",
    ("resilience_chaos", "health"):
        "bc2c723fef49201dcdf8edbb63373cba3bfc614dbcaf8950efe8658b6b32572c",
}


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

PARTS = ("bundles", "ring", "correlate", "grade", "health")


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
def test_fault_lifecycle_matches_recorded_golden(scenario):
    got = _digests(scenario)
    assert got == {part: GOLDENS[scenario, part] for part in PARTS}
