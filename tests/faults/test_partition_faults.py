"""Partition-scoped faults: blast radius, containment and fail-over.

The containment contract of a partition-scoped fault: only the victim
partition's in-flight work fails (typed ``partition_failure``), the
device stays routable, health marks only ``devN.<partition>`` DOWN,
pinned shards fail over to the spare partition, and every surviving
partition's result bytes are identical to a fault-free run.
"""

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.errors import ConfigError, LaunchFailed, PoisonError
from repro.faults import (
    DEFAULT_HEARTBEAT_NS,
    DOWN,
    UP,
    FaultEvent,
    FaultPlan,
)
from repro.faults.health import DEGRADED
from repro.host.api import pack_args
from repro.kernels.vecadd import VECADD
from repro.serve import ArrivalSpec, RetryPolicy, ServingEngine, TenantSpec

SPEC = "rt:1,batch:2,spare:1"


def _armed(events, num_devices=2, partitions=SPEC):
    platform = make_cluster_platform(num_devices=num_devices,
                                     backend="batched",
                                     partitions=partitions)
    injector = platform.runtime.arm_faults(FaultPlan(events=tuple(events)))
    return platform, injector


def _pinned_vecadd(runtime, partition, n=2048):
    a = (np.arange(n) * 3).astype(np.int64)
    addr_a = runtime.alloc_array(a, partition=partition)
    addr_b = runtime.alloc_array(a[::-1].copy(), partition=partition)
    addr_c = runtime.alloc(a.nbytes, partition=partition)
    kid = runtime.register_kernel(VECADD, name=f"v.{partition}")
    return a, addr_a, addr_b, addr_c, kid


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------

class TestPlanValidation:
    def test_partition_scoped_link_flap_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent("link_flap", at_ns=10.0, device=0,
                       duration_ns=100.0, partition="rt")

    def test_partition_scoped_events_need_partitioned_cluster(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=10.0, device=0, partition="rt"),
        ))
        with pytest.raises(ConfigError):
            platform.runtime.arm_faults(plan)

    def test_partition_scoped_events_validate_partition_name(self):
        platform = make_cluster_platform(num_devices=2, backend="batched",
                                         partitions=SPEC)
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=10.0, device=0,
                       partition="nope"),
        ))
        with pytest.raises(ConfigError):
            platform.runtime.arm_faults(plan)

    def test_duplicate_partition_kill_rejected(self):
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=10.0, device=0,
                       partition="rt"),
            FaultEvent("device_fail", at_ns=20.0, device=0,
                       partition="rt"),
        ))
        with pytest.raises(ConfigError):
            plan.validate_against(2)

    def test_partition_kills_do_not_count_against_survivor_rule(self):
        # killing one partition on every device still leaves the cluster
        # serving: whole-device uniqueness/survivor checks don't apply
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=10.0, device=0, partition="rt"),
            FaultEvent("device_fail", at_ns=10.0, device=1, partition="rt"),
        ))
        assert len(plan.events) == 2


# ---------------------------------------------------------------------------
# kill containment at the cluster tier
# ---------------------------------------------------------------------------

class TestPartitionKill:
    def test_kill_marks_partition_down_device_stays_routable(self):
        platform, injector = _armed(
            [FaultEvent("device_fail", at_ns=100.0, device=0,
                        partition="batch")]
        )
        runtime = platform.runtime
        runtime.sim.run()
        health = injector.health
        assert health.state(0, "batch") == DOWN
        assert health.state(0, "rt") == UP
        assert health.state(0) == UP
        assert runtime.scheduler.routable[0]
        stats = platform.stats
        assert stats.get("fault.partition_kills") == 1
        assert stats.get("fault.partition_detections") == 1
        assert stats.get("fault.device_kills") == 0

    def test_detection_is_heartbeat_quantized(self):
        platform, injector = _armed(
            [FaultEvent("device_fail", at_ns=123.0, device=0,
                        partition="batch")]
        )
        platform.runtime.sim.run()
        transition = [t for t in injector.health.transitions
                      if t[1] == 0 and t[2] == "batch" and t[4] == DOWN][0]
        assert transition[0] == injector.epoch_ns + DEFAULT_HEARTBEAT_NS

    def test_in_flight_launch_in_victim_partition_fails_typed(self):
        platform, _ = _armed(
            [FaultEvent("device_fail", at_ns=50.0, device=0,
                        partition="batch")],
            num_devices=1,
        )
        runtime = platform.runtime
        a, addr_a, addr_b, addr_c, kid = _pinned_vecadd(runtime, "batch")
        with pytest.raises(LaunchFailed) as excinfo:
            runtime.launch_kernel(kid, addr_a, addr_a + a.nbytes,
                                  args=pack_args(addr_b, addr_c))
        assert excinfo.value.reason == "partition_failure"

    def test_survivor_partition_bytes_identical_to_fault_free(self):
        results = []
        for events in ((), (FaultEvent("device_fail", at_ns=1.0, device=0,
                                       partition="batch"),)):
            platform, _ = _armed(events, num_devices=1)
            runtime = platform.runtime
            a, addr_a, addr_b, addr_c, kid = _pinned_vecadd(runtime, "rt")
            runtime.sim.run()          # let the kill land first
            runtime.launch_kernel(kid, addr_a, addr_a + a.nbytes,
                                  args=pack_args(addr_b, addr_c))
            results.append(bytes(
                runtime.physical.read_bytes(addr_c, a.nbytes)
            ))
        assert results[0] == results[1]
        expected = ((np.arange(2048) * 3)
                    + (np.arange(2048)[::-1] * 3)).astype(np.int64)
        assert results[0] == expected.tobytes()

    def test_pinned_shards_fail_over_to_spare(self):
        platform, _ = _armed(
            [FaultEvent("device_fail", at_ns=100.0, device=0,
                        partition="batch")]
        )
        runtime = platform.runtime
        arr = np.arange(512, dtype=np.int64)
        addr = runtime.alloc_array(arr, partition="batch")
        shard = runtime.shard_map(addr)
        assert shard.active_partition == "batch"
        runtime.sim.run()
        assert shard.partition == "batch"          # pin is immutable
        assert shard.active_partition == "spare"   # remap moved it
        assert platform.stats.get("recovery.partition_failovers") >= 1

    def test_failover_without_spare_picks_another_partition(self):
        platform, _ = _armed(
            [FaultEvent("device_fail", at_ns=100.0, device=0,
                        partition="b")],
            partitions="a:1,b:1",
        )
        runtime = platform.runtime
        addr = runtime.alloc_array(np.arange(64, dtype=np.int64),
                                   partition="b")
        runtime.sim.run()
        assert runtime.shard_map(addr).active_partition == "a"


# ---------------------------------------------------------------------------
# stall / poison scoping
# ---------------------------------------------------------------------------

class TestPartitionStallAndPoison:
    def test_stall_scopes_to_partition(self):
        platform, injector = _armed(
            [FaultEvent("device_stall", at_ns=0.0, device=0,
                        duration_ns=5_000.0, partition="batch")],
            num_devices=1,
        )
        runtime = platform.runtime
        runtime.sim.run()
        assert injector.health.state(0, "batch") == UP  # recovered
        assert platform.stats.get("fault.partition_stall_windows") == 1
        # the victim partition's issue path is delayed; the other is not
        assert injector.delay_issue(0, 10.0, partition="rt") == 10.0
        injector._stall_until[(0, "batch")] = 1_000.0
        assert injector.delay_issue(0, 10.0, partition="batch") == 1_000.0

    def test_stall_marks_degraded_then_up(self):
        platform, injector = _armed(
            [FaultEvent("device_stall", at_ns=0.0, device=0,
                        duration_ns=5_000.0, partition="batch")],
            num_devices=1,
        )
        platform.runtime.sim.run()
        states = [t[4] for t in injector.health.transitions
                  if t[2] == "batch"]
        assert states == [DEGRADED, UP]

    def test_poison_scopes_to_partition(self):
        platform, injector = _armed([], num_devices=1)
        runtime = platform.runtime
        a, addr_a, addr_b, addr_c, kid = _pinned_vecadd(runtime, "rt")
        injector._on_poison(FaultEvent(
            "poison", at_ns=0.0, device=0, base=addr_a, size=a.nbytes,
            partition="batch",
        ))
        # poison scoped to "batch" never hits an "rt"-pinned launch
        runtime.launch_kernel(kid, addr_a, addr_a + a.nbytes,
                              args=pack_args(addr_b, addr_c))
        injector._on_poison(FaultEvent(
            "poison", at_ns=0.0, device=0, base=addr_a, size=a.nbytes,
            partition="rt",
        ))
        with pytest.raises(PoisonError):
            runtime.launch_kernel(kid, addr_a, addr_a + a.nbytes,
                                  args=pack_args(addr_b, addr_c))


# ---------------------------------------------------------------------------
# health monitor partition view
# ---------------------------------------------------------------------------

class TestPartitionHealth:
    def test_device_down_implies_partitions_down(self):
        platform, injector = _armed(
            [FaultEvent("device_fail", at_ns=50.0, device=1)]
        )
        platform.runtime.sim.run()
        health = injector.health
        assert health.state(1) == DOWN
        assert health.state(1, "rt") == DOWN
        assert health.state(1, "batch") == DOWN
        assert health.state(0, "rt") == UP

    def test_render_includes_partition_states(self):
        platform, injector = _armed(
            [FaultEvent("device_fail", at_ns=50.0, device=0,
                        partition="batch")]
        )
        platform.runtime.sim.run()
        assert "dev0.batch:down" in injector.health.render().lower()

    def test_snapshot_includes_partition_health(self):
        platform, injector = _armed(
            [FaultEvent("device_fail", at_ns=50.0, device=0,
                        partition="batch")]
        )
        platform.runtime.sim.run()
        snap = injector.snapshot()
        assert snap["partition_health"]["dev0.batch"] == DOWN


# ---------------------------------------------------------------------------
# serving-tier containment (end to end)
# ---------------------------------------------------------------------------

def _serve(events, monitoring=None):
    platform = make_cluster_platform(num_devices=2, backend="batched",
                                     partitions=SPEC)
    injector = (platform.runtime.arm_faults(FaultPlan(events=tuple(events)))
                if events else None)
    tenants = [
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
    engine = ServingEngine(platform, tenants, monitoring=monitoring)
    report = engine.run()
    return platform, engine, injector, report


class TestServingContainment:
    def test_partition_kill_leaves_survivor_bytes_identical(self):
        _, healthy_engine, _, healthy = _serve(())
        platform, engine, _, report = _serve(
            [FaultEvent("device_fail", at_ns=4_000.0, device=0,
                        partition="batch")]
        )
        rt = report.tenant("rt")
        assert rt.correct
        assert rt.accounting_ok
        assert (engine.result_snapshots()["rt"]
                == healthy_engine.result_snapshots()["rt"])
        # the victim tenant recovered via spare-partition fail-over
        bulk = report.tenant("bulk")
        assert bulk.accounting_ok
        assert platform.stats.get("recovery.partition_failovers") >= 1

    def test_incident_bundle_reports_partition_blast_radius(self):
        _, engine, injector, _ = _serve(
            [FaultEvent("device_fail", at_ns=4_000.0, device=0,
                        partition="batch")],
            monitoring=True,
        )
        assert engine.monitoring.reporter.bundles
        radius = {}
        for bundle in engine.monitoring.reporter.bundles:
            radius.update(bundle.get("partition_blast_radius", {}))
        assert set(radius) == {"dev0.batch"}
        from repro.obs.incidents import grade_against_plan
        grade = grade_against_plan(injector, engine.monitoring.monitor.alerts)
        assert grade["recall"] == 1.0

    def test_unpartitioned_bundles_lack_blast_radius_key(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        platform.runtime.arm_faults(FaultPlan(events=(
            FaultEvent("device_fail", at_ns=4_000.0, device=1),
        )))
        tenants = [TenantSpec(
            "kv", "kvstore",
            arrivals=ArrivalSpec("poisson", rate_rps=2e6, requests=16),
            size=256, retry=RetryPolicy(max_retries=2, backoff_ns=500.0),
        )]
        engine = ServingEngine(platform, tenants, monitoring=True)
        engine.run()
        for bundle in engine.monitoring.reporter.bundles:
            assert "partition_blast_radius" not in bundle
