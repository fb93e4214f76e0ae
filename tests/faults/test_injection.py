"""Fault injection + recovery at the cluster tier: kills, detection,
typed failures, shard re-replication, stalls, flaps, poison, timeouts."""

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.cluster.placement import ShardMap
from repro.cluster.runtime import ClusterRuntime
from repro.errors import (
    ConfigError,
    DeviceUnavailable,
    LaunchFailed,
    PoisonError,
)
from repro.faults import (
    DEFAULT_HEARTBEAT_NS,
    DEGRADED,
    DOWN,
    UP,
    FaultEvent,
    FaultPlan,
    HealthMonitor,
)
from repro.host.api import pack_args
from repro.kernels.vecadd import VECADD
from repro.obs.monitor import Monitoring

N = 4096


def _armed_platform(events, num_devices=4):
    platform = make_cluster_platform(num_devices=num_devices,
                                     backend="batched")
    platform.runtime.arm_faults(FaultPlan(events=tuple(events)))
    return platform


def _vecadd_addrs(runtime, n=N, placement=None):
    a = (np.arange(n) * 7).astype(np.int64)
    b = (np.arange(n)[::-1] * 7).astype(np.int64)
    kw = {"placement": placement} if placement else {}
    addr_a = runtime.alloc_array(a, **kw)
    addr_b = runtime.alloc_array(b, **kw)
    addr_c = runtime.alloc(a.nbytes, **kw)
    return a, b, addr_a, addr_b, addr_c


class TestKillAndRecovery:
    def test_in_flight_launch_fails_typed(self):
        platform = _armed_platform(
            [FaultEvent("device_fail", at_ns=50.0, device=1)]
        )
        runtime = platform.runtime
        a, b, addr_a, addr_b, addr_c = _vecadd_addrs(runtime)
        with pytest.raises(LaunchFailed) as excinfo:
            runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                               args=pack_args(addr_b, addr_c))
        assert excinfo.value.device == 1
        assert excinfo.value.reason == "device_failure"
        stats = platform.stats
        assert stats.get("fault.device_kills") == 1
        assert stats.get("fault.detections") == 1
        assert stats.get("recovery.failed_launches") >= 1

    def test_detection_is_heartbeat_quantized(self):
        platform = _armed_platform(
            [FaultEvent("device_fail", at_ns=123.0, device=2)]
        )
        runtime = platform.runtime
        faults = runtime.faults
        runtime.sim.run()
        assert faults.health.state(2) == DOWN
        transition = [t for t in faults.health.transitions
                      if t[1] == 2 and t[4] == DOWN][0]
        assert transition[0] == faults.epoch_ns + DEFAULT_HEARTBEAT_NS

    def test_post_kill_launch_avoids_dead_device(self):
        platform = _armed_platform(
            [FaultEvent("device_fail", at_ns=0.0, device=1)]
        )
        runtime = platform.runtime
        runtime.sim.run()                 # detect + recover, nothing in flight
        a, b, addr_a, addr_b, addr_c = _vecadd_addrs(runtime)
        instance = runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                                      args=pack_args(addr_b, addr_c))
        got = runtime.read_array(addr_c, np.int64, N)
        assert np.array_equal(got, a + b)
        assert instance is not None
        assert not runtime.scheduler.routable[1]

    def test_replicated_placement_fails_over_without_recopy(self):
        platform = _armed_platform(
            [FaultEvent("device_fail", at_ns=0.0, device=1)]
        )
        runtime = platform.runtime
        _vecadd_addrs(runtime, placement="replicated")
        runtime.sim.run()
        assert platform.stats.get("recovery.failovers") >= 1
        assert platform.stats.get("recovery.recopy_bytes") == 0

    def test_sharded_placement_pays_recopy(self):
        platform = _armed_platform(
            [FaultEvent("device_fail", at_ns=0.0, device=1)]
        )
        runtime = platform.runtime
        _vecadd_addrs(runtime, placement="blocked")
        runtime.sim.run()
        assert platform.stats.get("recovery.remapped_shards") >= 1
        assert platform.stats.get("recovery.recopy_bytes") > 0

    def test_arming_twice_rejected(self):
        platform = _armed_platform([])
        with pytest.raises(ConfigError):
            platform.runtime.arm_faults(FaultPlan.none())


class TestSchedulerRouting:
    def test_set_routable_updates_count(self):
        scheduler = make_cluster_platform(num_devices=4).runtime.scheduler
        assert scheduler.num_routable == 4
        assert scheduler.set_routable(2, False)
        assert scheduler.num_routable == 3
        assert not scheduler.set_routable(2, False)   # idempotent
        assert scheduler.set_routable(2, True)
        assert scheduler.num_routable == 4

    def test_all_down_raises_device_unavailable(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        runtime = platform.runtime
        a, b, addr_a, addr_b, addr_c = _vecadd_addrs(runtime)
        for device in range(2):
            runtime.scheduler.set_routable(device, False)
        with pytest.raises(DeviceUnavailable):
            runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                               args=pack_args(addr_b, addr_c))


class TestStallFlapPoison:
    def test_stall_delays_but_stays_correct(self):
        def run(events):
            platform = _armed_platform(events)
            runtime = platform.runtime
            a, b, addr_a, addr_b, addr_c = _vecadd_addrs(runtime)
            instance = runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                                          args=pack_args(addr_b, addr_c))
            got = runtime.read_array(addr_c, np.int64, N)
            assert np.array_equal(got, a + b)
            return instance.runtime_ns, platform.stats

        healthy_ns, _ = run([])
        stalled_ns, stats = run([
            FaultEvent("device_stall", at_ns=0.0, device=d,
                       duration_ns=5_000.0)
            for d in range(4)
        ])
        assert stalled_ns > healthy_ns
        assert stats.get("fault.stall_delays") >= 1

    def test_link_flap_charges_retries(self):
        def run(events):
            platform = _armed_platform(events)
            runtime = platform.runtime
            a, b, addr_a, addr_b, addr_c = _vecadd_addrs(runtime)
            runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                               args=pack_args(addr_b, addr_c))
            # wall completion: retried packets delay transfers, not the
            # device-side compute time
            return platform.sim.now, platform.stats

        healthy_ns, _ = run([])
        flapped_ns, stats = run([
            FaultEvent("link_flap", at_ns=0.0, device=d,
                       duration_ns=100_000.0)
            for d in range(4)
        ])
        assert flapped_ns > healthy_ns
        assert stats.get("fault.link_flaps") >= 1
        assert (stats.get("switch.link_retries")
                + stats.get("cxl.link_retries")) >= 1

    def test_poisoned_pool_raises_typed(self):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        runtime = platform.runtime
        a, b, addr_a, addr_b, addr_c = _vecadd_addrs(runtime)
        runtime.arm_faults(FaultPlan(events=(
            FaultEvent("poison", at_ns=0.0, base=addr_a, size=64),
        )))
        runtime.sim.run()
        with pytest.raises(PoisonError) as excinfo:
            runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                               args=pack_args(addr_b, addr_c))
        assert excinfo.value.base == addr_a
        assert platform.stats.get("fault.poisoned_launches") == 1


class TestDegradationWindows:
    """Health transitions and recorder rows of stall / flap windows that
    overlap each other or a kill (device 1, times in ns)."""

    @staticmethod
    def _run(events):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        runtime = platform.runtime
        runtime.monitoring = Monitoring(runtime, [])
        injector = runtime.arm_faults(FaultPlan(events=tuple(events)))
        runtime.sim.run()
        transitions = [(t, new) for t, dev, _part, _old, new
                       in injector.health.transitions if dev == 1]
        ups = [row.t_ns for row in runtime.monitoring.recorder.events(
            kinds=("recovery.device_up",)) if row.device == 1]
        return injector, transitions, ups

    def test_device_killed_inside_a_stall_never_recovers(self):
        injector, transitions, ups = self._run([
            FaultEvent("device_stall", at_ns=1_000.0, device=1,
                       duration_ns=30_000.0),
            FaultEvent("device_fail", at_ns=8_000.0, device=1),
        ])
        assert transitions == [(1_000.0, DEGRADED), (10_000.0, DOWN)]
        assert injector.health.state(1) == DOWN
        assert ups == []            # the 31 us window end is not a recovery

    @pytest.mark.parametrize("outer, inner", [
        ("device_stall", "link_flap"), ("link_flap", "device_stall")])
    def test_up_only_when_the_last_window_closes(self, outer, inner):
        injector, transitions, ups = self._run([
            FaultEvent(outer, at_ns=1_000.0, device=1, duration_ns=20_000.0),
            FaultEvent(inner, at_ns=2_000.0, device=1, duration_ns=3_000.0),
        ])
        assert transitions == [(1_000.0, DEGRADED), (21_000.0, UP)]
        assert ups == [21_000.0]
        # only stall windows hold issue, each until its own end
        held_until = 21_000.0 if outer == "device_stall" else 5_000.0
        assert injector.delay_issue(1, 2_500.0, "spx") == held_until

    def test_disjoint_windows_each_recover(self):
        _, transitions, ups = self._run([
            FaultEvent("device_stall", at_ns=1_000.0, device=1,
                       duration_ns=2_000.0),
            FaultEvent("link_flap", at_ns=5_000.0, device=1,
                       duration_ns=2_000.0),
        ])
        assert [new for _, new in transitions] == [DEGRADED, UP, DEGRADED, UP]
        assert ups == [3_000.0, 7_000.0]


class TestLaunchTimeout:
    def test_resolver_precedence(self):
        # off by default; callers that need another value set the
        # attribute, as the watchdog test does
        runtime = ClusterRuntime()
        assert runtime.launch_timeout_ns == 0.0
        runtime.launch_timeout_ns = 2500
        assert runtime.launch_timeout_ns == 2500.0

    def test_resolver_rejects_garbage(self):
        runtime = ClusterRuntime()
        for bad in ("soon", -5, float("nan"), float("inf"), True):
            with pytest.raises(ConfigError, match="launch_timeout_ns"):
                runtime.launch_timeout_ns = bad
        assert runtime.launch_timeout_ns == 0.0

    def test_watchdog_fails_slow_launch(self):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        runtime = platform.runtime
        runtime.launch_timeout_ns = 1.0   # far below any real launch
        a, b, addr_a, addr_b, addr_c = _vecadd_addrs(runtime)
        with pytest.raises(LaunchFailed) as excinfo:
            runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                               args=pack_args(addr_b, addr_c))
        assert excinfo.value.reason == "timeout"
        assert platform.stats.get("fault.launch_timeouts") == 1


class TestHealthMonitor:
    def test_down_is_terminal(self):
        health = HealthMonitor(2)
        assert health.mark(0, DOWN, 10.0)
        assert not health.mark(0, UP, 20.0)
        assert health.state(0) == DOWN
        assert health.is_routable(1) and not health.is_routable(0)

    def test_render_lists_states(self):
        health = HealthMonitor(2)
        health.mark(1, DOWN, 5.0)
        text = health.render()
        assert "dev0:up" in text and "dev1:down" in text


class TestShardMapFailOver:
    def test_replicated_fail_over_is_free(self):
        shard = ShardMap(base=0, size=1 << 16, placement="replicated",
                         num_devices=4, shard_bytes=4096)
        assert shard.fail_over(1, 2) == 0
        assert shard.owner_of(0) == shard.owner_of(0)   # still valid

    def test_blocked_fail_over_moves_bytes_and_remaps(self):
        shard = ShardMap(base=0, size=1 << 16, placement="blocked",
                         num_devices=4, shard_bytes=4096)
        victim_addr = next(
            addr for addr in range(0, 1 << 16, 4096)
            if shard.owner_of(addr) == 1
        )
        expected = shard.device_bytes(1)
        assert expected > 0
        assert shard.fail_over(1, 2) == expected
        assert shard.owner_of(victim_addr) == 2
        assert shard.device_bytes(1) == 0      # remap moved residency
