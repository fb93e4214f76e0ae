"""Detailed tests of the host runtime API and allocator."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster_platform
from repro.errors import LaunchError, SimulationError
from repro.host import api
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
from repro.workloads.base import make_platform


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

    def test_heap_stops_below_the_dram_tlb_region(self, runtime,
                                                  monkeypatch):
        device = runtime.device
        limit = (device.config.cxl_dram.capacity_bytes
                 - device.dram_tlb.region_bytes)
        monkeypatch.setattr(api, "HDM_HEAP_BASE", limit - 8192)
        allocator = HDMAllocator([(device, runtime.asid)])
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


#: One platform of each kind the allocator serves: a device, and a
#: cluster whose four devices share it.
PLATFORMS = {"device": make_platform,
             "cluster": partial(make_cluster_platform, 4)}

_REQUEST = st.tuples(st.integers(1, 3 * 4096), st.sampled_from([8, 128, 4096]))

#: ``("alloc", (size, align))`` or ``("free", (kind, pick))``.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("alloc"), _REQUEST),
    st.tuples(st.just("free"), st.tuples(
        st.sampled_from(["live", "top", "interior", "double", "unknown"]),
        st.integers(0, 1 << 16))),
), max_size=40)


def _devices(platform):
    return getattr(platform, "devices", [platform.device])


def _spaces(platform):
    """Every ``(device, asid)`` the platform's one allocator maps on."""
    runtime = platform.runtime
    return getattr(runtime, "runtimes", [runtime])[0].allocator.spaces


class TestFree:
    """Random alloc/free sequences against the platform's one allocator.

    Each allocation is filled with its own non-zero byte, so a free that
    zeroed a live neighbour's bytes (ranges 8 or 128 B aligned share
    pages) or a reused range that still held old bytes shows.
    """

    @pytest.mark.parametrize("kind", sorted(PLATFORMS))
    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_alloc_free_sequences(self, kind, ops):
        platform = PLATFORMS[kind]()
        runtime = platform.runtime
        physical = platform.device.physical
        versions = [device.translation_version
                    for device in _devices(platform)]
        limit = (platform.device.config.cxl_dram.capacity_bytes
                 - platform.device.dram_tlb.region_bytes)
        live: dict[int, tuple[int, int, bytes]] = {}  # base -> size, align
        freed: list[int] = []

        def alloc(size, align, fill):
            base = runtime.alloc(size, align=align)
            assert base % align == 0
            assert HDM_HEAP_BASE <= base and base + size <= limit
            assert physical.read_bytes(base, size) == bytes(size)
            data = bytes([fill]) * size
            physical.write_bytes(base, data)
            live[base] = (size, align, data)
            return base

        def free(base):
            size, align, _ = live.pop(base)
            runtime.allocator.free(base)
            freed.append(base)
            assert physical.read_bytes(base, size) == bytes(size)
            return size, align

        for step, (op, args) in enumerate(ops):
            if op == "alloc":
                alloc(*args, fill=step % 255 + 1)
            else:
                how, pick = args
                bases = sorted(live)
                if how == "unknown":
                    with pytest.raises(LaunchError):
                        runtime.allocator.free(HDM_HEAP_BASE - 8 * (pick + 1))
                elif how == "double":
                    gone = [base for base in freed if base not in live]
                    if gone:
                        with pytest.raises(LaunchError):
                            runtime.allocator.free(gone[pick % len(gone)])
                elif how == "interior":
                    inner = [base for base in bases if live[base][0] > 1]
                    if inner:
                        base = inner[pick % len(inner)]
                        with pytest.raises(LaunchError):
                            runtime.allocator.free(
                                base + 1 + pick % (live[base][0] - 1))
                elif bases and how == "live":
                    free(bases[pick % len(bases)])
                elif bases:                      # the top range
                    size, align = free(bases[-1])
                    # first fit: the range just freed, or a lower one
                    assert alloc(size, align, fill=step % 255 + 1) \
                        <= bases[-1]
            ranges = sorted((base, base + size)
                            for base, (size, _, _) in live.items())
            assert all(hi <= lo for (_, hi), (lo, _) in zip(ranges,
                                                            ranges[1:]))
            for base, (size, _, data) in live.items():
                assert physical.read_bytes(base, size) == data
        assert [device.translation_version
                for device in _devices(platform)] == versions

    @pytest.mark.parametrize("kind", sorted(PLATFORMS))
    @given(requests=st.lists(_REQUEST, min_size=1, max_size=12),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_freeing_everything_gives_the_same_bases_again(
            self, kind, requests, order):
        """What a reused serving platform does: every range freed, in any
        order, then the same requests again.  They get the same bases (so
        does the top range alone), and remapping those pages changes no
        translation."""
        platform = PLATFORMS[kind]()
        runtime = platform.runtime
        physical = platform.device.physical
        devices = _devices(platform)
        bases = [runtime.alloc(size, align=align) for size, align in requests]
        runtime.allocator.free(bases[-1])                 # the top range comes back
        assert runtime.alloc(*requests[-1]) == bases[-1]
        for base, (size, _) in zip(bases, requests):
            physical.write_bytes(base, b"\xff" * size)
        tables = [len(device.page_table(asid))
                  for device, asid in _spaces(platform)]
        versions = [device.translation_version for device in devices]
        order.shuffle(shuffled := list(bases))
        for base in shuffled:
            runtime.allocator.free(base)
        for base, (size, _) in zip(bases, requests):
            assert physical.read_bytes(base, size) == bytes(size)
        assert [runtime.alloc(size, align=align)
                for size, align in requests] == bases
        assert [device.translation_version for device in devices] == versions
        assert [len(device.page_table(asid))
                for device, asid in _spaces(platform)] == tables

    def test_cluster_devices_share_one_allocator(self):
        runtime = make_cluster_platform(num_devices=4).runtime
        shared = runtime.allocator.allocator
        assert all(rt.allocator is shared for rt in runtime.runtimes)
        assert shared.spaces == [(rt.device, rt.asid)
                                 for rt in runtime.runtimes]


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
