"""Detailed tests of the host runtime API and allocator."""

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.errors import LaunchError, SimulationError
from repro.host.api import (
    HDM_HEAP_BASE,
    M2FUNC_REGION_BYTES,
    HDMAllocator,
    M2NDPRuntime,
    pack_args,
)
from repro.ndp.device import M2NDPDevice
from repro.ndp.tlb import PageTable
from repro.sim.engine import Simulator


@pytest.fixture
def runtime():
    sim = Simulator()
    return M2NDPRuntime(M2NDPDevice(sim))


class TestPackArgs:
    def test_layout(self):
        data = pack_args(1, 2)
        assert data == (1).to_bytes(8, "little") + (2).to_bytes(8, "little")

    def test_wraps_to_u64(self):
        data = pack_args(-1)
        assert data == b"\xff" * 8

    def test_empty(self):
        assert pack_args() == b""


class TestAllocator:
    def test_alignment(self, runtime):
        addr = runtime.alloc(100, align=4096)
        assert addr % 4096 == 0

    def test_allocations_do_not_overlap(self, runtime):
        a = runtime.alloc(5000)
        b = runtime.alloc(5000)
        assert b >= a + 5000

    def test_heap_starts_above_reserved_regions(self, runtime):
        addr = runtime.alloc(64)
        assert addr >= HDM_HEAP_BASE

    def test_identity_mapping_installed(self, runtime):
        addr = runtime.alloc(4096)
        table = runtime.device.page_table(runtime.asid)
        assert table.lookup(addr >> 12).ppn == addr >> 12

    def test_dram_tlb_prewarmed(self, runtime):
        addr = runtime.alloc(8192)
        table = runtime.device.page_table(runtime.asid)
        _, cold = runtime.device.dram_tlb.lookup(runtime.asid, addr >> 12,
                                                 table)
        assert cold is False

    def test_zero_size_rejected(self, runtime):
        with pytest.raises(LaunchError):
            runtime.alloc(0)

    @pytest.mark.parametrize("align", [0, -4096, 3, 4097])
    def test_align_not_a_power_of_two_rejected(self, runtime, align):
        with pytest.raises(LaunchError, match="power of two"):
            runtime.alloc(64, align=align)
        assert runtime.alloc(64) == HDM_HEAP_BASE

    def test_cluster_alloc_rejects_a_bad_align(self):
        runtime = make_cluster_platform(num_devices=2).runtime
        with pytest.raises(LaunchError, match="power of two"):
            runtime.alloc(64, align=0)

    def test_heap_stops_below_the_dram_tlb_region(self, runtime):
        device = runtime.device
        limit = (device.config.cxl_dram.capacity_bytes
                 - device.dram_tlb.region_bytes)
        allocator = HDMAllocator(device, runtime.asid, base=limit - 8192)
        with pytest.raises(LaunchError, match="DRAM-TLB"):
            allocator.alloc(8193)
        assert allocator.alloc(8192) == limit - 8192
        with pytest.raises(LaunchError, match="DRAM-TLB"):
            allocator.alloc(1)

    def test_oversized_alloc_fails_before_mapping_a_page(self, runtime,
                                                         monkeypatch):
        def no_mapping(*args):
            raise AssertionError("a page was mapped")

        monkeypatch.setattr(PageTable, "map_page", no_mapping)
        with pytest.raises(LaunchError, match="DRAM-TLB"):
            runtime.alloc(1 << 45)

    def test_array_roundtrip(self, runtime):
        data = np.linspace(0, 1, 777, dtype=np.float64)
        addr = runtime.alloc_array(data)
        assert np.array_equal(runtime.read_array(addr, np.float64, 777), data)


class TestM2FuncRegion:
    def test_region_registered_in_filter(self, runtime):
        entry = runtime.device.packet_filter.match(runtime.func_addr(0))
        assert entry is not None and entry.asid == runtime.asid
        assert entry.bound - entry.base == M2FUNC_REGION_BYTES

    def test_two_processes_get_disjoint_regions(self):
        sim = Simulator()
        device = M2NDPDevice(sim)
        r1 = M2NDPRuntime(device, asid=1)
        r2 = M2NDPRuntime(device, asid=2)
        e1, e2 = r1.filter_entry, r2.filter_entry
        assert e1.bound <= e2.base or e2.bound <= e1.base

    def test_function_addresses_strided_32b(self, runtime):
        assert runtime.func_addr(1) - runtime.func_addr(0) == 32

    def test_call_async_resolves_via_sim(self, runtime):
        call = runtime.call_async(3, pack_args(999))   # poll unknown id
        assert not call.done
        while not call.done:
            assert runtime.sim.step()
        assert call.value is not None and call.value < 0

    def test_call_timing_orders_write_before_read(self, runtime):
        call = runtime.call_async(3, pack_args(1))
        while not call.done:
            runtime.sim.step()
        assert call.ack_ns is not None
        assert call.done_ns > call.ack_ns

    def test_deadlock_detection(self, runtime):
        from repro.host.api import M2Call

        orphan = M2Call(func=0, issued_ns=0.0)
        with pytest.raises(SimulationError):
            runtime._await(orphan)
