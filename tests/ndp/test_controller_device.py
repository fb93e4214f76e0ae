"""Tests for the NDP controller (Table II) and device end-to-end paths."""

import numpy as np
import pytest

from repro.errors import LaunchError
from repro.host.api import M2NDPRuntime, pack_args
from repro.kernels.vecadd import VECADD
from repro.ndp.controller import ERR_BAD_ARGS, ERR_UNKNOWN_KERNEL
from repro.ndp.device import M2NDPDevice
from repro.ndp.kernel import KernelStatus
from repro.sim.engine import Simulator


@pytest.fixture
def platform():
    sim = Simulator()
    device = M2NDPDevice(sim)
    runtime = M2NDPRuntime(device)
    return sim, device, runtime


def setup_vecadd(runtime, n=512):
    a = np.arange(n, dtype=np.int64)
    b = np.arange(n, dtype=np.int64) * 2
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(b)
    addr_c = runtime.alloc(n * 8)
    return a, b, addr_a, addr_b, addr_c, n


class TestTableII:
    def test_register_returns_positive_id(self, platform):
        _, _, runtime = platform
        kid = runtime.register_kernel(VECADD)
        assert kid > 0

    def test_register_ids_unique(self, platform):
        _, _, runtime = platform
        ids = {runtime.register_kernel(VECADD) for _ in range(5)}
        assert len(ids) == 5

    def test_unregister(self, platform):
        _, device, runtime = platform
        kid = runtime.register_kernel(VECADD)
        runtime.unregister_kernel(kid)
        assert kid not in device.controller.kernels

    def test_unregister_unknown_errors(self, platform):
        _, _, runtime = platform
        with pytest.raises(LaunchError) as exc:
            runtime.unregister_kernel(999)
        assert exc.value.code == ERR_UNKNOWN_KERNEL

    def test_launch_unknown_kernel_errors(self, platform):
        _, _, runtime = platform
        with pytest.raises(LaunchError):
            runtime.launch_kernel(12345, 0x2000_0000, 0x2000_0020)

    def test_sync_launch_completes_kernel(self, platform):
        _, device, runtime = platform
        a, b, addr_a, addr_b, addr_c, n = setup_vecadd(runtime)
        kid = runtime.register_kernel(VECADD)
        handle = runtime.launch_kernel(
            kid, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c),
            sync=True,
        )
        assert handle.complete_ns is not None
        instance = device.controller.instances[handle.instance_id]
        assert instance.status is KernelStatus.FINISHED
        out = runtime.read_array(addr_c, np.int64, n)
        assert np.array_equal(out, a + b)

    def test_async_launch_then_poll(self, platform):
        sim, device, runtime = platform
        a, b, addr_a, addr_b, addr_c, n = setup_vecadd(runtime)
        kid = runtime.register_kernel(VECADD)
        handle = runtime.launch_kernel(
            kid, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c),
            sync=False,
        )
        assert handle.instance_id is not None
        runtime.sim.run()
        # delivered, so the controller dropped it; the handle keeps it
        assert handle.instance_id not in device.controller.instances
        assert runtime.instances_of(handle).status is KernelStatus.FINISHED
        status = runtime.poll_kernel_status(handle.instance_id)
        assert status is KernelStatus.FINISHED

    def test_poll_unknown_instance_errors(self, platform):
        _, _, runtime = platform
        with pytest.raises(LaunchError):
            runtime.poll_kernel_status(777)

    def test_shootdown_via_api(self, platform):
        _, device, runtime = platform
        addr = runtime.alloc(4096)
        runtime.shootdown_tlb(runtime.asid, addr >> 12)   # must not raise

    def test_return_value_stored_in_m2func_region(self, platform):
        """The controller stores return values at the call address so a
        plain CXL.mem read retrieves them (§III-B)."""
        _, device, runtime = platform
        kid = runtime.register_kernel(VECADD)
        addr = runtime.func_addr(0)
        import struct
        stored = struct.unpack("<q", device.physical.read_bytes(addr, 8))[0]
        assert stored == kid


class TestConcurrencyAndQueueing:
    def test_concurrent_kernels_share_units(self, platform):
        sim, device, runtime = platform
        a, b, addr_a, addr_b, addr_c, n = setup_vecadd(runtime, n=1024)
        kid = runtime.register_kernel(VECADD)
        handles = [
            runtime.launch_async(kid, addr_a, addr_a + n * 8,
                                 args=pack_args(addr_b, addr_c))
            for _ in range(4)
        ]
        runtime.sim.run()
        assert all(h.complete_ns is not None for h in handles)

    def test_launch_queue_beyond_max_concurrent(self, platform):
        sim, device, runtime = platform
        a, b, addr_a, addr_b, addr_c, n = setup_vecadd(runtime, n=256)
        kid = runtime.register_kernel(VECADD)
        count = device.config.ndp.max_concurrent_kernels + 8
        handles = [
            runtime.launch_async(kid, addr_a, addr_a + n * 8,
                                 args=pack_args(addr_b, addr_c))
            for _ in range(count)
        ]
        runtime.sim.run()
        finished = [h for h in handles if h.complete_ns is not None]
        assert len(finished) == count

    def test_instances_get_distinct_arg_slots(self, platform):
        """Concurrent instances must not clobber each other's scratchpad
        argument blocks."""
        sim, device, runtime = platform
        n = 256
        kid = runtime.register_kernel(VECADD)
        a = np.arange(n, dtype=np.int64)
        addr_a = runtime.alloc_array(a)
        outs = []
        for i in range(3):
            b = np.full(n, 1000 * (i + 1), dtype=np.int64)
            addr_b = runtime.alloc_array(b)
            addr_c = runtime.alloc(n * 8)
            outs.append((b, addr_c))
            runtime.launch_async(kid, addr_a, addr_a + n * 8,
                                 args=pack_args(addr_b, addr_c))
        runtime.sim.run()
        for b, addr_c in outs:
            assert np.array_equal(runtime.read_array(addr_c, np.int64, n),
                                  a + b)


class TestDeviceTiming:
    def test_normal_read_pays_load_to_use(self, platform):
        sim, device, runtime = platform
        addr = runtime.alloc(64)
        results = []
        device.host_read(0.0, addr, 64, lambda data, t: results.append(t))
        sim.run()
        assert len(results) == 1
        # at least the link round trip plus device processing
        assert results[0] >= 2 * device.link.one_way_ns

    def test_write_ack_timing(self, platform):
        sim, device, runtime = platform
        addr = runtime.alloc(64)
        ack = device.host_write(0.0, addr, b"\0" * 64)
        assert ack >= 2 * device.link.one_way_ns

    def test_kernel_runtime_positive_and_bw_sane(self, platform):
        sim, device, runtime = platform
        a, b, addr_a, addr_b, addr_c, n = setup_vecadd(runtime, n=4096)
        instance = runtime.run_kernel(
            VECADD, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c)
        )
        assert instance.runtime_ns > 0
        bw = device.stats.get("cxl_dram.bytes") / instance.runtime_ns
        assert bw <= device.dram.peak_bw_bytes_per_ns

    def test_streaming_kernel_near_peak_bandwidth(self):
        """The paper's headline microarchitecture claim: µthreads saturate
        ~90% of internal DRAM bandwidth on streaming kernels.  A claim of
        the interpreter's event-driven schedule: the batched roofline
        reads about 0.72 of peak here."""
        device = M2NDPDevice(Simulator(), backend="interpreter")
        runtime = M2NDPRuntime(device)
        a, b, addr_a, addr_b, addr_c, n = setup_vecadd(runtime, n=8192)
        instance = runtime.run_kernel(
            VECADD, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c)
        )
        utilization = (device.stats.get("cxl_dram.bytes") / instance.runtime_ns
                       / device.dram.peak_bw_bytes_per_ns)
        assert utilization > 0.80
