"""Tests for virtual memory (TLBs, DRAM-TLB) and occupancy management."""

import pytest

from repro.errors import LaunchError, TranslationFault
from repro.ndp import tlb
from repro.ndp.occupancy import SubcoreOccupancy, UnitOccupancy
from repro.ndp.tlb import (
    DRAM_TLB_ENTRY_BYTES,
    DRAMTLB,
    PAGE_SIZE,
    PageTable,
    TLB,
)


class TestPageTable:
    def test_map_and_lookup(self):
        table = PageTable(asid=7)
        table.map_page(vpn=0x100, ppn=0x200)
        assert table.lookup(0x100).ppn == 0x200

    def test_fault_on_unmapped(self):
        with pytest.raises(TranslationFault):
            PageTable(asid=7).lookup(0x999)

    def test_map_range(self):
        table = PageTable(asid=1)
        table.map_range(0x10000, 0x80000, 3 * PAGE_SIZE)
        for i in range(3):
            assert table.lookup((0x10000 >> 12) + i).ppn == (0x80000 >> 12) + i

    def test_map_identity(self):
        table = PageTable(asid=1)
        table.map_identity(0x123456, 100)
        vpn = 0x123456 >> 12
        assert table.lookup(vpn).ppn == vpn

    def test_unaligned_range_rejected(self):
        with pytest.raises(TranslationFault):
            PageTable(asid=1).map_range(0x10001, 0x80000, PAGE_SIZE)


class TestTLB:
    def test_hit_after_insert(self):
        tlb = TLB(entries=4)
        table = PageTable(asid=1)
        table.map_page(5, 50)
        assert tlb.lookup(1, 5) is None
        tlb.insert(1, table.lookup(5))
        assert tlb.lookup(1, 5).ppn == 50

    def test_asid_isolation(self):
        tlb = TLB(entries=4)
        table = PageTable(asid=1)
        table.map_page(5, 50)
        tlb.insert(1, table.lookup(5))
        assert tlb.lookup(2, 5) is None

    def test_lru_capacity(self):
        tlb = TLB(entries=2)
        table = PageTable(asid=1)
        for vpn in range(3):
            table.map_page(vpn, vpn + 100)
            tlb.insert(1, table.lookup(vpn))
        assert tlb.lookup(1, 0) is None     # evicted
        assert tlb.lookup(1, 2) is not None

    def test_shootdown(self):
        tlb = TLB(entries=4)
        table = PageTable(asid=1)
        table.map_page(5, 50)
        tlb.insert(1, table.lookup(5))
        assert tlb.shootdown(1, 5) is True
        assert tlb.lookup(1, 5) is None
        assert tlb.shootdown(1, 5) is False

    def test_hit_rate(self):
        tlb = TLB(entries=4)
        table = PageTable(asid=1)
        table.map_page(1, 10)
        tlb.lookup(1, 1)
        tlb.insert(1, table.lookup(1))
        tlb.lookup(1, 1)
        assert (tlb.hits, tlb.misses) == (1, 1)


class TestDRAMTLB:
    @pytest.fixture(autouse=True)
    def small_region(self, monkeypatch):
        monkeypatch.setattr(tlb, "DRAM_TLB_ENTRIES", 1 << 12)

    def test_entry_cost_is_16_bytes(self):
        assert DRAM_TLB_ENTRY_BYTES == 16
        # 0.4% overhead for 4 KB pages (paper §III-H)
        assert DRAM_TLB_ENTRY_BYTES / PAGE_SIZE == pytest.approx(0.0039, abs=1e-4)

    def test_cold_then_warm(self):
        dtlb = DRAMTLB()
        table = PageTable(asid=1)
        table.map_page(7, 70)
        _, cold = dtlb.lookup(1, 7, table)
        assert cold is True
        translation, cold = dtlb.lookup(1, 7, table)
        assert cold is False and translation.ppn == 70

    def test_warm_range(self):
        dtlb = DRAMTLB()
        table = PageTable(asid=1)
        table.map_identity(0x100000, 4 * PAGE_SIZE)
        count = dtlb.warm_range(1, 0x100000, 4 * PAGE_SIZE, table)
        assert count == 4
        _, cold = dtlb.lookup(1, 0x100000 >> 12, table)
        assert cold is False

    def test_shootdown(self):
        dtlb = DRAMTLB()
        table = PageTable(asid=1)
        table.map_page(7, 70)
        dtlb.lookup(1, 7, table)
        assert dtlb.shootdown(1, 7) is True
        _, cold = dtlb.lookup(1, 7, table)
        assert cold is True


class TestSubcoreOccupancy:
    def test_slot_limit(self):
        occ = SubcoreOccupancy(num_slots=2, rf_capacity_bytes=1 << 20)
        occ.allocate(100)
        occ.allocate(100)
        assert not occ.can_allocate(100)
        with pytest.raises(LaunchError):
            occ.allocate(100)

    def test_rf_limit(self):
        occ = SubcoreOccupancy(num_slots=16, rf_capacity_bytes=250)
        occ.allocate(200)
        assert not occ.can_allocate(100)

    def test_release_fine_grained(self):
        occ = SubcoreOccupancy(num_slots=1, rf_capacity_bytes=1000)
        slot = occ.allocate(100)
        occ.release(slot, 100)
        assert occ.can_allocate(100)
        assert occ.active == 0

    def test_coarse_grained_quarantine(self):
        """Fig 12a ablation: coarse spawn holds slots until all drain."""
        occ = SubcoreOccupancy(num_slots=2, rf_capacity_bytes=1 << 20,
                               spawn_granularity=2)
        a = occ.allocate(10)
        b = occ.allocate(10)
        occ.release(a, 10)
        # slot a is quarantined while b is still running
        assert not occ.can_allocate(10)
        occ.release(b, 10)
        assert occ.can_allocate(10)

    def test_release_underflow_detected(self):
        occ = SubcoreOccupancy(num_slots=2, rf_capacity_bytes=100)
        slot = occ.allocate(50)
        occ.release(slot, 50)
        with pytest.raises(LaunchError):
            occ.release(slot, 50)


class TestUnitOccupancy:
    def test_round_robin_across_subcores(self):
        unit = UnitOccupancy(num_subcores=4, slots_per_subcore=16,
                             rf_bytes_per_subcore=1 << 20)
        allocations = [unit.try_allocate(64) for _ in range(4)]
        assert {a.subcore_index for a in allocations} == {0, 1, 2, 3}

    def test_full_unit_returns_none(self):
        unit = UnitOccupancy(num_subcores=1, slots_per_subcore=2,
                             rf_bytes_per_subcore=1 << 20)
        unit.try_allocate(1)
        unit.try_allocate(1)
        assert unit.try_allocate(1) is None

    def test_active_ratio(self):
        unit = UnitOccupancy(num_subcores=2, slots_per_subcore=2,
                             rf_bytes_per_subcore=1 << 20)
        unit.try_allocate(1)
        assert unit.active_ratio() == 0.25

    def test_release_restores(self):
        unit = UnitOccupancy(num_subcores=1, slots_per_subcore=1,
                             rf_bytes_per_subcore=1 << 20)
        alloc = unit.try_allocate(8)
        assert unit.try_allocate(8) is None
        unit.release(alloc)
        assert unit.try_allocate(8) is not None
