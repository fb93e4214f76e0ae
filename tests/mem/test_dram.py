"""Tests for the banked DRAM timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import lpddr5_cxl_dram
from repro.mem.dram import DRAMModel
from repro.mem.layout import AddressLayout
from repro.sim.stats import StatsRegistry


@pytest.fixture
def dram():
    return DRAMModel(lpddr5_cxl_dram(), StatsRegistry())


class TestBasicTiming:
    def test_first_access_pays_activation(self, dram):
        timing = dram.config.timing
        done = dram.access(0, 32, 0.0, is_write=False)
        expected_min = timing.row_miss_ns
        assert done >= expected_min

    def test_row_hit_faster_than_miss(self, dram):
        first = dram.access(0, 32, 0.0, is_write=False)
        # same granule row: subsequent access should be a hit
        second = dram.access(0, 32, 1000.0, is_write=False) - 1000.0
        assert second < first

    def test_row_hit_counted(self, dram):
        dram.access(0, 32, 0.0, is_write=False)
        dram.access(0, 32, 1000.0, is_write=False)
        assert dram.stats.get("dram.row_hits") >= 1

    def test_conflict_slower_than_hit(self, dram):
        layout = dram.layout
        channel, bank, row = layout.coordinates(0)
        # find an address in the same channel+bank but a different row
        conflict_addr = None
        for addr in range(256, 1 << 24, 256):
            c = layout.coordinates(addr)
            if c[:2] == (channel, bank) and c[2] != row:
                conflict_addr = addr
                break
        assert conflict_addr is not None
        dram.access(0, 32, 0.0, is_write=False)
        hit_time = dram.access(0, 32, 5000.0, is_write=False) - 5000.0
        conflict_time = dram.access(conflict_addr, 32, 10000.0,
                                    is_write=False) - 10000.0
        assert conflict_time > hit_time
        assert dram.stats.get("dram.row_conflicts") >= 1

    def test_multi_burst_access_spans_channels(self, dram):
        done = dram.access(0, 256, 0.0, is_write=False)
        # 8 bursts over (mostly) distinct channels should overlap heavily:
        # far less than 8 serialized accesses
        single = dram.access(1 << 20, 32, 10_000.0, is_write=False) - 10_000.0
        assert done < 8 * single


class TestBandwidth:
    def test_streaming_approaches_peak(self, dram):
        total_bytes = 0
        finish = 0.0
        for i in range(4096):
            addr = i * 32
            finish = max(finish, dram.access(addr, 32, 0.0, is_write=False))
            total_bytes += 32
        achieved = total_bytes / finish
        assert achieved > 0.7 * dram.peak_bw_bytes_per_ns

    def test_single_bank_stream_is_limited(self, dram):
        layout = dram.layout
        base = layout.coordinates(0)
        same_bank = [0]
        for addr in range(256, 1 << 26, 256):
            c = layout.coordinates(addr)
            if c[:2] == base[:2]:
                same_bank.append(addr)
            if len(same_bank) >= 64:
                break
        finish = 0.0
        for addr in same_bank:
            finish = max(finish, dram.access(addr, 32, 0.0, is_write=False))
        achieved = len(same_bank) * 32 / finish
        assert achieved < 0.2 * dram.peak_bw_bytes_per_ns

    def test_utilization_accounting(self, dram):
        dram.access(0, 32, 0.0, is_write=True)
        assert dram.stats.get("dram.bytes") == 32
        assert dram.stats.get("dram.writes") == 1

    def test_reset(self, dram):
        dram.access(0, 32, 0.0, is_write=False)
        dram.reset()
        again = dram.access(0, 32, 0.0, is_write=False)
        assert again >= dram.config.timing.row_miss_ns


class TestMonotonicity:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 24),
                              st.floats(min_value=0, max_value=1e5)),
                    min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_completion_after_arrival(self, accesses):
        dram = DRAMModel(lpddr5_cxl_dram(), StatsRegistry())
        for addr, t in accesses:
            done = dram.access(addr, 32, t, is_write=False)
            assert done > t


class TestLayout:
    def test_coordinates_deterministic(self):
        layout = AddressLayout(lpddr5_cxl_dram())
        assert layout.coordinates(0x1234) == layout.coordinates(0x1234)

    def test_channels_spread(self):
        layout = AddressLayout(lpddr5_cxl_dram())
        channels = {layout.coordinates(i * 256)[0] for i in range(256)}
        assert len(channels) == layout.config.channels

    def test_strided_pattern_spreads(self):
        """Hashed interleaving avoids channel camping on 8 KB strides."""
        layout = AddressLayout(lpddr5_cxl_dram())
        channels = [layout.coordinates(i * 8192)[0] for i in range(64)]
        assert len(set(channels)) > 8

    def test_split_by_access_covers_range(self):
        layout = AddressLayout(lpddr5_cxl_dram())
        pieces = layout.split_by_access(100, 64)
        assert pieces[0][0] <= 100
        assert pieces[-1][0] + pieces[-1][1] >= 164
        assert all(size == 32 for _, size in pieces)
