"""Cross-module integration tests: full-stack behaviours the paper relies
on, beyond single-workload correctness."""

import numpy as np
import pytest

from repro.host.api import M2NDPRuntime, pack_args
from repro.kernels.reduction import REDUCE_SUM_I64
from repro.kernels.vecadd import VECADD, VECADD_F32
from repro.ndp.device import M2NDPDevice
from repro.sim.engine import Simulator
from repro.workloads.base import make_platform


def fresh():
    sim = Simulator()
    device = M2NDPDevice(sim)
    return sim, device, M2NDPRuntime(device)


class TestReductionKernel:
    """The paper's Fig 8 example: init/body/finalizer with scratchpad."""

    def test_global_sum(self):
        _, device, runtime = fresh()
        n = 4096
        values = np.arange(n, dtype=np.int64)
        data_addr = runtime.alloc_array(values)
        result_addr = runtime.alloc(8)
        instance = runtime.run_kernel(
            REDUCE_SUM_I64, data_addr, data_addr + n * 8,
            args=pack_args(result_addr), scratchpad_bytes=0x110,
            name="reduce",
        )
        assert runtime.read_array(result_addr, np.int64, 1)[0] == values.sum()
        # all three phases spawned µthreads
        assert instance.uthreads_done > instance.num_body_uthreads

    def test_phases_in_order(self):
        """Initializer must complete before bodies (barrier semantics):
        otherwise partial sums would be corrupted."""
        _, device, runtime = fresh()
        for trial in range(3):
            n = 1024
            values = np.ones(n, dtype=np.int64) * (trial + 1)
            data_addr = runtime.alloc_array(values)
            result_addr = runtime.alloc(8)
            runtime.run_kernel(
                REDUCE_SUM_I64, data_addr, data_addr + n * 8,
                args=pack_args(result_addr), scratchpad_bytes=0x110,
            )
            assert (runtime.read_array(result_addr, np.int64, 1)[0]
                    == (trial + 1) * n)


class TestFloat32Path:
    def test_vecadd_f32(self):
        _, _, runtime = fresh()
        n = 1024
        a = np.linspace(0, 1, n, dtype=np.float32)
        b = np.linspace(1, 2, n, dtype=np.float32)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(n * 4)
        runtime.run_kernel(VECADD_F32, addr_a, addr_a + n * 4,
                           args=pack_args(addr_b, addr_c))
        out = runtime.read_array(addr_c, np.float32, n)
        assert np.allclose(out, a + b)


class TestVirtualMemoryIntegration:
    def test_tlb_shootdown_forces_refill(self):
        sim, device, runtime = fresh()
        n = 512
        a = np.arange(n, dtype=np.int64)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(a)
        addr_c = runtime.alloc(n * 8)
        runtime.run_kernel(VECADD, addr_a, addr_a + n * 8,
                           args=pack_args(addr_b, addr_c))
        fills_before = device.stats.get("ndp.tlb_fill")
        runtime.shootdown_tlb(runtime.asid, addr_a >> 12)
        runtime.run_kernel(VECADD, addr_a, addr_a + n * 8,
                           args=pack_args(addr_b, addr_c))
        assert device.stats.get("ndp.tlb_fill") >= fills_before

    def test_unmapped_pool_region_faults(self):
        from repro.errors import TranslationFault
        _, _, runtime = fresh()
        with pytest.raises(TranslationFault):
            runtime.run_kernel(VECADD, 0x9000_0000, 0x9000_0020,
                               args=pack_args(0x9000_0000, 0x9000_0000))


class TestDirtyHostCache:
    def test_results_correct_under_back_invalidation(self):
        platform = make_platform(dirty_fraction=0.8)
        runtime = platform.runtime
        n = 1024
        a = np.arange(n, dtype=np.int64)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(a)
        addr_c = runtime.alloc(n * 8)
        runtime.run_kernel(VECADD, addr_a, addr_a + n * 8,
                           args=pack_args(addr_b, addr_c))
        assert np.array_equal(runtime.read_array(addr_c, np.int64, n), 2 * a)
        assert platform.stats.get("hdm.back_invalidations") > 0

    def test_dirty_lines_slow_the_kernel(self):
        times = {}
        for fraction in (0.0, 0.8):
            platform = make_platform(dirty_fraction=fraction)
            runtime = platform.runtime
            n = 4096
            a = np.arange(n, dtype=np.int64)
            addr_a = runtime.alloc_array(a)
            addr_b = runtime.alloc_array(a)
            addr_c = runtime.alloc(n * 8)
            instance = runtime.run_kernel(
                VECADD, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c)
            )
            times[fraction] = instance.runtime_ns
        assert times[0.8] > times[0.0]
        # but BI overlaps with other µthreads: bounded impact (Fig 13b)
        assert times[0.8] < 8 * times[0.0]


class TestSpawnGranularityAblation:
    def test_coarse_spawn_not_faster(self):
        times = {}
        for granularity in (1, 16):
            platform = make_platform(spawn_granularity=granularity)
            runtime = platform.runtime
            n = 8192
            a = np.arange(n, dtype=np.int64)
            addr_a = runtime.alloc_array(a)
            addr_b = runtime.alloc_array(a)
            addr_c = runtime.alloc(n * 8)
            instance = runtime.run_kernel(
                VECADD, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c)
            )
            times[granularity] = instance.runtime_ns
        assert times[16] >= times[1] * 0.95


class TestLtUSensitivity:
    def test_kernel_runtime_latency_invariant(self):
        """Fig 13a: M2NDP kernels never cross the link, so their runtime is
        unaffected by CXL load-to-use latency."""
        from repro.config import default_system
        times = {}
        for ltu in (150.0, 600.0):
            platform = make_platform(default_system().with_ltu(ltu))
            runtime = platform.runtime
            n = 2048
            a = np.arange(n, dtype=np.int64)
            addr_a = runtime.alloc_array(a)
            addr_b = runtime.alloc_array(a)
            addr_c = runtime.alloc(n * 8)
            instance = runtime.run_kernel(
                VECADD, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c)
            )
            times[ltu] = instance.runtime_ns
        assert times[600.0] == pytest.approx(times[150.0], rel=0.02)
