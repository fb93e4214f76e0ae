"""Tests for the M2func packet filter."""

import pytest
from hypothesis import given, strategies as st

from repro.cxl import packet_filter
from repro.cxl.packet_filter import ENTRY_BYTES, FilterEntry, PacketFilter
from repro.errors import ProtocolError


class TestFilterEntry:
    def test_contains(self):
        entry = FilterEntry(asid=7, base=0x1000, bound=0x2000)
        assert entry.contains(0x1000)
        assert entry.contains(0x1FFF)
        assert not entry.contains(0x2000)
        assert not entry.contains(0xFFF)

    def test_asid_must_fit_16_bits(self):
        with pytest.raises(ProtocolError):
            FilterEntry(asid=1 << 16, base=0, bound=1)

    def test_empty_region_rejected(self):
        with pytest.raises(ProtocolError):
            FilterEntry(asid=1, base=0x1000, bound=0x1000)


class TestPacketFilter:
    def test_insert_and_match(self):
        filt = PacketFilter()
        filt.insert(7, 0x10000, 0x20000)
        entry = filt.match(0x10040)
        assert entry is not None and entry.asid == 7

    def test_miss_returns_none(self):
        filt = PacketFilter()
        filt.insert(7, 0x10000, 0x20000)
        assert filt.match(0x30000) is None

    def test_multiple_processes(self):
        filt = PacketFilter()
        filt.insert(7, 0x10000, 0x20000)
        filt.insert(10, 0x20000, 0x30000)
        assert filt.match(0x10000).asid == 7
        assert filt.match(0x20000).asid == 10

    def test_overlap_rejected(self):
        filt = PacketFilter()
        filt.insert(7, 0x10000, 0x20000)
        with pytest.raises(ProtocolError):
            filt.insert(8, 0x18000, 0x28000)

    def test_reinsert_same_asid_replaces(self):
        filt = PacketFilter()
        filt.insert(7, 0x10000, 0x20000)
        filt.insert(7, 0x40000, 0x50000)
        assert filt.match(0x40000).asid == 7
        assert filt.match(0x10000) is None

    def test_capacity_enforced(self, monkeypatch):
        monkeypatch.setattr(packet_filter, "MAX_ENTRIES", 2)
        filt = PacketFilter()
        filt.insert(1, 0x10000, 0x11000)
        filt.insert(2, 0x20000, 0x21000)
        with pytest.raises(ProtocolError):
            filt.insert(3, 0x30000, 0x31000)

    def test_storage_cost_is_18_bytes_per_entry(self):
        """The paper: 18 KB of SRAM supports 1024 processes."""
        assert ENTRY_BYTES == 18

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=1 << 40),
           st.integers(min_value=1, max_value=1 << 20))
    def test_match_boundary_property(self, asid, base, length):
        filt = PacketFilter()
        filt.insert(asid, base, base + length)
        assert filt.match(base) is not None
        assert filt.match(base + length - 1) is not None
        assert filt.match(base + length) is None
        if base > 0:
            assert filt.match(base - 1) is None
