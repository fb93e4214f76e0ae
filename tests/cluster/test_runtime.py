"""ClusterRuntime: single-device equivalence, multi-device correctness,
P2P charging, config/env validation."""

import numpy as np
import pytest

from repro.cluster import ClusterRuntime, make_cluster_platform
from repro.config import ClusterConfig
from repro.errors import ConfigError, LaunchError
from repro.experiments import engines
from repro.host.api import M2NDPRuntime, pack_args
from repro.kernels.reduction import REDUCE_SUM_I64
from repro.ndp.controller import (FUNC_LAUNCH, LAUNCH_FLAG_OFFSET_BIAS,
                                  LAUNCH_FLAG_PARTITION)
from repro.kernels.vecadd import VECADD
from repro.workloads import olap
from repro.workloads.base import make_platform

N = 4096


def _vecadd_inputs(n=N):
    a = (np.arange(n) * 7).astype(np.int64)
    b = (np.arange(n)[::-1] * 7).astype(np.int64)
    return a, b


def _run_vecadd(platform, n=N):
    runtime = platform.runtime
    a, b = _vecadd_inputs(n)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(b)
    addr_c = runtime.alloc(a.nbytes)
    instance = runtime.run_kernel(
        VECADD, addr_a, addr_a + a.nbytes, args=pack_args(addr_b, addr_c)
    )
    return runtime.read_array(addr_c, np.int64, n), instance.runtime_ns


class TestSingleDeviceEquivalence:
    """A 1-device cluster must produce byte-identical functional results to
    the plain M2NDPRuntime on both execution backends."""

    @pytest.mark.parametrize("backend", ["interpreter", "batched"])
    def test_vecadd_byte_identical(self, backend):
        single, _ = _run_vecadd(make_platform(backend=backend))
        clustered, _ = _run_vecadd(
            make_cluster_platform(num_devices=1, backend=backend)
        )
        assert np.array_equal(single.view(np.uint8), clustered.view(np.uint8))

    @pytest.mark.parametrize("backend", ["interpreter", "batched"])
    def test_olap_q6_byte_identical(self, backend):
        rows = 1 << 12
        results = {}
        for make in (lambda: make_platform(backend=backend),
                     lambda: make_cluster_platform(num_devices=1,
                                                   backend=backend)):
            data = olap.generate("q6", rows)
            platform = make()
            run = olap.run_ndp_evaluate(platform, data)
            assert run.correct
            results[platform.__class__.__name__] = run
        single, clustered = results.values()
        assert single.dram_bytes == clustered.dram_bytes

    def test_single_device_timing_close_to_plain_runtime(self):
        # runtime_ns runs from device start to completion, after the
        # switch hop on the launch path, so the two are equal
        _, single_ns = _run_vecadd(make_platform(backend="batched"))
        _, cluster_ns = _run_vecadd(
            make_cluster_platform(num_devices=1, backend="batched")
        )
        assert cluster_ns == single_ns

    @pytest.mark.parametrize("kernel,run,make_data", engines.KERNELS,
                             ids=[kernel for kernel, _, _ in engines.KERNELS])
    def test_every_kernel_matches_the_single_device(self, kernel, run,
                                                    make_data):
        # every workload runs unmodified on a cluster, and a 1-device
        # cluster is the single device
        single = run(make_platform(), make_data())
        clustered = run(make_cluster_platform(num_devices=1), make_data())
        fields = ("correct", "runtime_ns", "instructions", "uthreads",
                  "dram_bytes")
        assert ({f: getattr(clustered, f) for f in fields}
                == {f: getattr(single, f) for f in fields})


class TestMultiDeviceCorrectness:
    @pytest.mark.parametrize("backend", ["interpreter", "batched"])
    @pytest.mark.parametrize("placement",
                             ["interleaved", "blocked", "replicated"])
    def test_vecadd_all_placements(self, placement, backend):
        a, b = _vecadd_inputs()
        platform = make_cluster_platform(num_devices=4, placement=placement,
                                         backend=backend)
        out, _ = _run_vecadd(platform)
        assert np.array_equal(out, a + b)

    @pytest.mark.parametrize("scheduler",
                             ["round_robin", "locality", "least_outstanding"])
    def test_vecadd_all_schedulers(self, scheduler):
        a, b = _vecadd_inputs()
        platform = make_cluster_platform(num_devices=3, scheduler=scheduler,
                                         backend="batched")
        out, _ = _run_vecadd(platform)
        assert np.array_equal(out, a + b)

    def test_olap_q6_on_four_devices(self):
        data = olap.generate("q6", 1 << 12)
        platform = make_cluster_platform(num_devices=4, backend="batched")
        run = olap.run_ndp_evaluate(platform, data)
        assert run.correct

    def test_workload_unmodified_on_cluster(self):
        # the workload module is written against the single-device Platform;
        # ClusterPlatform must satisfy it as-is, stats included
        data = olap.generate("q14", 1 << 12)
        platform = make_cluster_platform(num_devices=2, backend="batched")
        run = olap.run_ndp_evaluate(platform, data)
        assert run.correct
        assert run.dram_bytes > 0          # aggregated across devices

    def test_amo_kernel_falls_back_and_stays_correct(self):
        # reduction uses .init/.final + amoadd: every sub-launch falls back
        # to the interpreter on its device; the partial sums still combine
        # because the scratchpad-accumulated result is written per device
        # pool share into the same output via atomics
        platform = make_cluster_platform(num_devices=2, backend="batched")
        runtime = platform.runtime
        n = 2048
        values = np.arange(n, dtype=np.int64)
        addr = runtime.alloc_array(values)
        out = runtime.alloc(8)
        runtime.run_kernel(REDUCE_SUM_I64, addr, addr + n * 8,
                           args=pack_args(out), scratchpad_bytes=64)
        assert runtime.read_array(out, np.int64, 1)[0] == values.sum()

    def test_concurrent_launches_get_distinct_instances(self):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        runtime = platform.runtime
        a, b = _vecadd_inputs()
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(a.nbytes)
        kid = runtime.register_kernel(VECADD, name="v")
        handles = [
            runtime.launch_async(kid, addr_a, addr_a + a.nbytes,
                                 args=pack_args(addr_b, addr_c))
            for _ in range(4)
        ]
        runtime.sim.run()
        for handle in handles:
            assert handle.finished
        per_device: dict[int, set] = {}
        for handle in handles:
            for sub, sub_handle in zip(handle.plan, handle.subs):
                ids = per_device.setdefault(sub.device, set())
                assert sub_handle.instance_id not in ids
                ids.add(sub_handle.instance_id)


class TestP2PCharging:
    def test_locality_never_touches_the_switch(self):
        platform = make_cluster_platform(num_devices=4, scheduler="locality",
                                         backend="batched")
        _run_vecadd(platform)
        assert platform.stats.get("switch.p2p_bytes") == 0

    def test_off_owner_sublaunch_pays_p2p(self):
        # a blocked pool swept from a misaligned subrange under round_robin
        # puts chunks on non-owners: P2P bytes must flow through the switch
        platform = make_cluster_platform(num_devices=4, placement="blocked",
                                         scheduler="round_robin",
                                         backend="batched")
        runtime = platform.runtime
        n = 1 << 14
        a, b = _vecadd_inputs(n)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(a.nbytes)
        kid = runtime.register_kernel(VECADD, name="v")
        # skip the first block so round-robin misaligns with ownership
        shard = runtime.shard_map(addr_a)
        lo = addr_a + shard.block_bytes
        handle = runtime.launch_kernel(
            kid, lo, addr_a + a.nbytes, args=pack_args(addr_b, addr_c))
        assert handle.finished
        assert platform.stats.get("switch.p2p_bytes") > 0
        # the logical launch covers A's subrange with x2 starting at 0, so
        # it pairs A[start:] with B[:n-start] — same as a single device
        start = shard.block_bytes // 8
        produced = runtime.read_array(addr_c, np.int64, n - start)
        assert np.array_equal(produced, a[start:] + b[:n - start])

    def test_p2p_delays_sublaunch_start(self):
        kwargs = dict(num_devices=2, placement="blocked", backend="batched")
        times = {}
        for scheduler in ("locality", "round_robin"):
            platform = make_cluster_platform(scheduler=scheduler, **kwargs)
            runtime = platform.runtime
            n = 1 << 15
            a, b = _vecadd_inputs(n)
            addr_a = runtime.alloc_array(a)
            addr_b = runtime.alloc_array(b)
            addr_c = runtime.alloc(a.nbytes)
            kid = runtime.register_kernel(VECADD, name="v")
            shard = runtime.shard_map(addr_a)
            lo = addr_a + shard.block_bytes    # all chunks off-owner for RR
            handle = runtime.launch_kernel(kid, lo, addr_a + a.nbytes,
                                           args=pack_args(addr_b, addr_c))
            times[scheduler] = handle.complete_ns - handle.issued_ns
        assert times["round_robin"] > times["locality"]


class TestFanoutCharge:
    """The switch carries each sub-launch's M2func write as the runtime
    wrote it: bias and partition words only when present."""

    @staticmethod
    def _launch_bytes(monkeypatch, platform, run) -> tuple[int, list]:
        built = []
        call_async = M2NDPRuntime.call_async

        def spy(self, func, payload, *args, **kwargs):
            if func == FUNC_LAUNCH:
                built.append(payload)
            return call_async(self, func, payload, *args, **kwargs)

        monkeypatch.setattr(M2NDPRuntime, "call_async", spy)
        before = platform.stats.get("switch.host_bytes")
        run()
        return platform.stats.get("switch.host_bytes") - before, built

    def test_multi_device_fanout_charges_the_payloads_built(self,
                                                            monkeypatch):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        runtime = platform.runtime
        a, b = _vecadd_inputs()
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(a.nbytes)
        kid = runtime.register_kernel(VECADD, name="v")
        charged, built = self._launch_bytes(
            monkeypatch, platform, lambda: runtime.launch_kernel(
                kid, addr_a, addr_a + a.nbytes,
                args=pack_args(addr_b, addr_c)))
        biased = [bool(int.from_bytes(payload[:8], "little")
                       & LAUNCH_FLAG_OFFSET_BIAS) for payload in built]
        # the sub-launch that starts the pool sends no bias word
        assert biased.count(False) == 1 and len(biased) > 1
        assert charged == sum(map(len, built))

    def test_partition_tagged_launch_charges_the_payload_built(self,
                                                               monkeypatch):
        platform = make_cluster_platform(num_devices=1,
                                         partitions="rt:1,batch:3")
        runtime = platform.runtime
        a = np.arange(1024, dtype=np.int64)
        addr_a = runtime.alloc_array(a, partition="batch")
        addr_b = runtime.alloc_array(a, partition="batch")
        addr_c = runtime.alloc(a.nbytes, partition="batch")
        kid = runtime.register_kernel(VECADD, name="v")
        charged, built = self._launch_bytes(
            monkeypatch, platform, lambda: runtime.launch_kernel(
                kid, addr_a, addr_a + a.nbytes,
                args=pack_args(addr_b, addr_c)))
        (payload,) = built
        flags = int.from_bytes(payload[:8], "little")
        assert flags & LAUNCH_FLAG_PARTITION
        assert not flags & LAUNCH_FLAG_OFFSET_BIAS
        assert charged == len(payload) == 7 * 8 + 16


class TestValidation:
    def test_cluster_config_rejects_bad_placement(self):
        with pytest.raises(ConfigError):
            ClusterConfig(placement="scattered")

    def test_cluster_config_rejects_bad_scheduler(self):
        with pytest.raises(ConfigError):
            ClusterConfig(scheduler="fifo")

    def test_cluster_config_rejects_zero_devices(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_devices=0)

    def test_cluster_config_rejects_negative_seed(self):
        with pytest.raises(ConfigError):
            ClusterConfig(seed=-1)

    def test_env_scheduler_validated_at_construction(self):
        with pytest.raises(ConfigError, match="'fifo' \\(from scheduler\\)"):
            ClusterRuntime(scheduler="fifo")

    def test_env_scheduler_applied(self):
        runtime = ClusterRuntime(cluster=ClusterConfig(scheduler="round_robin"))
        assert runtime.scheduler.policy == "round_robin"

    def test_explicit_scheduler_beats_env(self):
        # the argument overrides the config field
        runtime = ClusterRuntime(cluster=ClusterConfig(scheduler="round_robin"),
                                 scheduler="least_outstanding")
        assert runtime.scheduler.policy == "least_outstanding"

    def test_env_backend_validated_at_construction(self):
        with pytest.raises(ConfigError, match="from backend"):
            ClusterRuntime(backend="jit")
        with pytest.raises(ConfigError, match="from backend"):
            make_platform(backend="jit")

    def test_unknown_kernel_id_rejected(self):
        runtime = ClusterRuntime(cluster=ClusterConfig(num_devices=2))
        with pytest.raises(LaunchError):
            runtime.launch_kernel(99, 0x2000_0000, 0x2000_1000)

    def test_conflicting_platform_arguments_rejected(self):
        with pytest.raises(ConfigError):
            make_cluster_platform(cluster=ClusterConfig(), placement="blocked")
