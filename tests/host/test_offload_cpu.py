"""Tests for offload mechanisms and the CPU models."""

import numpy as np
import pytest

from repro.config import COMPARATORS, CXLConfig
from repro.host.api import M2NDPRuntime, pack_args
from repro.host.cpu import CoreRequestPool, HostCPUModel, MemoryTarget
from repro.host.offload import (
    CXL_IO_ONE_WAY_NS,
    CXL_MEM_ONE_WAY_NS,
    make_offload_path,
    timeline,
)
from repro.kernels.vecadd import VECADD
from repro.ndp.device import M2NDPDevice
from repro.sim.engine import Simulator


class TestTimelines:
    def test_fig5_totals(self):
        z = 6_400.0
        assert timeline("m2func", z).total_ns == z + 2 * CXL_MEM_ONE_WAY_NS
        assert timeline("cxl_io_rb", z).total_ns == z + 8 * CXL_IO_ONE_WAY_NS
        assert timeline("cxl_io_dr", z).total_ns == z + 3 * CXL_IO_ONE_WAY_NS

    def test_m2func_has_lowest_overhead(self):
        z = 1000.0
        overheads = {m: timeline(m, z).overhead_ns
                     for m in ("m2func", "cxl_io_rb", "cxl_io_dr")}
        assert overheads["m2func"] < overheads["cxl_io_dr"] < overheads["cxl_io_rb"]

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            timeline("smoke_signals", 100.0)
        with pytest.raises(ValueError):
            make_offload_path("smoke_signals")


def _vecadd_setup(n=256):
    sim = Simulator()
    device = M2NDPDevice(sim)
    runtime = M2NDPRuntime(device)
    a = np.arange(n, dtype=np.int64)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(a)
    addr_c = runtime.alloc(n * 8)
    kid = runtime.register_kernel(VECADD)
    return sim, runtime, kid, addr_a, addr_b, addr_c, n


class TestOffloadPaths:
    @pytest.mark.parametrize("mech", ["m2func", "cxl_io_rb", "cxl_io_dr"])
    def test_launch_completes(self, mech):
        sim, runtime, kid, addr_a, addr_b, addr_c, n = _vecadd_setup()
        path = make_offload_path(mech)
        done = []
        path.launch(runtime, kid, addr_a, addr_a + n * 8,
                    args=pack_args(addr_b, addr_c), at_ns=sim.now,
                    on_complete=lambda h: done.append(h.complete_ns))
        sim.run()
        assert len(done) == 1 and done[0] > 0

    def test_cxl_io_paths_slower_than_m2func(self):
        latencies = {}
        for mech in ("m2func", "cxl_io_rb", "cxl_io_dr"):
            sim, runtime, kid, addr_a, addr_b, addr_c, n = _vecadd_setup()
            path = make_offload_path(mech)
            start = sim.now
            done = []
            path.launch(runtime, kid, addr_a, addr_a + n * 8,
                        args=pack_args(addr_b, addr_c), at_ns=start,
                        on_complete=lambda h: done.append(h.complete_ns))
            sim.run()
            latencies[mech] = done[0] - start
        assert latencies["m2func"] < latencies["cxl_io_dr"]
        assert latencies["cxl_io_dr"] < latencies["cxl_io_rb"]

    def test_direct_mmio_serializes(self):
        """The register pair admits one kernel at a time (§II-C)."""
        sim, runtime, kid, addr_a, addr_b, addr_c, n = _vecadd_setup()
        path = make_offload_path("cxl_io_dr")
        completions = []
        for _ in range(3):
            path.launch(runtime, kid, addr_a, addr_a + n * 8,
                        args=pack_args(addr_b, addr_c), at_ns=0.0,
                        on_complete=lambda h: completions.append(h.complete_ns))
        sim.run()
        completions.sort()
        # each launch pays the full pre+kernel+post after the previous one
        gap = path.pre_ns + path.post_ns
        assert completions[1] - completions[0] >= gap
        assert completions[2] - completions[1] >= gap

    def test_ring_buffer_allows_concurrency(self):
        sim, runtime, kid, addr_a, addr_b, addr_c, n = _vecadd_setup()
        path = make_offload_path("cxl_io_rb")
        completions = []
        for _ in range(3):
            path.launch(runtime, kid, addr_a, addr_a + n * 8,
                        args=pack_args(addr_b, addr_c), at_ns=0.0,
                        on_complete=lambda h: completions.append(h.complete_ns))
        sim.run()
        completions.sort()
        # concurrent kernels overlap: spread far below serialized overhead
        assert completions[-1] - completions[0] < path.pre_ns + path.post_ns


class TestHostCPUModel:
    def test_single_core_mlp_limited(self):
        cpu = HostCPUModel()
        memory = MemoryTarget("cxl", 150.0, 64.0)
        bw = cpu.scan_bandwidth(memory, threads=1)
        assert bw == pytest.approx(10 * 64 / 150.0)

    def test_many_cores_hit_link_ceiling(self):
        cpu = HostCPUModel()
        memory = MemoryTarget("cxl", 150.0, 64.0)
        assert cpu.scan_bandwidth(memory) == pytest.approx(64.0)

    def test_pointer_chase_serializes(self):
        cpu = HostCPUModel()
        memory = MemoryTarget("cxl", 150.0, 64.0)
        assert cpu.pointer_chase_ns(4, memory) == pytest.approx(600.0)

    def test_internal_memory_faster(self):
        cpu = HostCPUModel()
        link = CXLConfig()
        cxl = MemoryTarget("cxl", link.load_to_use_ns,
                           link.bw_per_dir_bytes_per_ns)
        internal = MemoryTarget.device_internal()
        assert internal.load_to_use_ns == (
            COMPARATORS["cpu_ndp"]["load_to_use_ns"])
        assert cpu.scan_bandwidth(internal, threads=8) > cpu.scan_bandwidth(
            cxl, threads=8
        )


class TestCoreRequestPool:
    def test_parallel_service(self):
        sim = Simulator()
        pool = CoreRequestPool(sim, num_cores=4)
        done = [pool.submit(0.0, 100.0) for _ in range(4)]
        assert all(d == 100.0 for d in done)

    def test_queueing_when_saturated(self):
        sim = Simulator()
        pool = CoreRequestPool(sim, num_cores=1)
        first = pool.submit(0.0, 100.0)
        second = pool.submit(0.0, 100.0)
        assert (first, second) == (100.0, 200.0)

    def test_latency_distribution_records_queueing(self):
        sim = Simulator()
        pool = CoreRequestPool(sim, num_cores=1)
        pool.submit(0.0, 100.0)
        pool.submit(0.0, 100.0)
        assert max(pool.latencies.samples) == 200.0

    def test_callback_scheduled(self):
        sim = Simulator()
        pool = CoreRequestPool(sim, num_cores=1)
        seen = []
        pool.submit(5.0, 10.0, callback=lambda t: seen.append(t))
        sim.run()
        assert seen == [15.0]
