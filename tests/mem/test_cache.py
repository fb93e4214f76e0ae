"""Tests for the sector cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import SectorCache
from repro.sim.stats import StatsRegistry


def small_cache(write_allocate=True, write_back=True) -> SectorCache:
    config = CacheConfig(name="t", size_bytes=4096, ways=2, line_bytes=128,
                         sector_bytes=32, hit_latency_ns=1.0)
    return SectorCache(config, StatsRegistry(), "t",
                       write_allocate=write_allocate, write_back=write_back)


class TestBasics:
    def test_first_read_misses_then_hits(self):
        cache = small_cache()
        miss = cache.access(0x100, 32, is_write=False)
        assert miss.missing_sectors
        hit = cache.access(0x100, 32, is_write=False)
        assert not hit.missing_sectors

    def test_sector_granularity(self):
        cache = small_cache()
        cache.access(0x100, 32, is_write=False)
        # a different sector of the same line still misses
        result = cache.access(0x120, 32, is_write=False)
        assert result.missing_sectors

    def test_multi_sector_access(self):
        cache = small_cache()
        result = cache.access(0x100, 128, is_write=False)
        assert len(result.missing_sectors) == 4
        assert not cache.access(0x100, 128, is_write=False).missing_sectors

    def test_unaligned_access_touches_both_sectors(self):
        cache = small_cache()
        result = cache.access(0x11E, 8, is_write=False)
        assert len(result.missing_sectors) == 2

    def test_lru_eviction(self):
        cache = small_cache()
        # set 0 lines: addresses that map to set 0 with 2 ways
        config = cache.config
        stride = config.num_sets * config.line_bytes
        a, b, c = 0, stride, 2 * stride
        cache.access(a, 32, is_write=False)
        cache.access(b, 32, is_write=False)
        cache.access(a, 32, is_write=False)      # touch a; b becomes LRU
        cache.access(c, 32, is_write=False)      # evicts b
        assert not cache.access(a, 32, is_write=False).missing_sectors
        assert cache.access(b, 32, is_write=False).missing_sectors


class TestWritePolicies:
    def test_write_through_forwards_every_write(self):
        cache = small_cache(write_allocate=False, write_back=False)
        first = cache.access(0x40, 32, is_write=True)
        assert first.missing_sectors  # forwarded to next level
        cache.access(0x40, 32, is_write=False)   # still a read miss
        second = cache.access(0x40, 32, is_write=True)
        assert second.missing_sectors  # write-through even on hit

    def test_write_back_dirty_eviction(self):
        cache = small_cache(write_allocate=True, write_back=True)
        config = cache.config
        stride = config.num_sets * config.line_bytes
        cache.access(0, 32, is_write=True)          # dirty line in set 0
        cache.access(stride, 32, is_write=False)
        result = cache.access(2 * stride, 32, is_write=False)  # evict dirty
        assert result.writebacks == [(0, 32)]

    def test_clean_eviction_no_writeback(self):
        cache = small_cache()
        config = cache.config
        stride = config.num_sets * config.line_bytes
        cache.access(0, 32, is_write=False)
        cache.access(stride, 32, is_write=False)
        result = cache.access(2 * stride, 32, is_write=False)
        assert result.writebacks == []

    def test_write_hit_marks_dirty(self):
        cache = small_cache()
        cache.access(0, 32, is_write=False)
        cache.access(0, 32, is_write=True)   # hit, marks dirty
        config = cache.config
        stride = config.num_sets * config.line_bytes
        cache.access(stride, 32, is_write=False)
        result = cache.access(2 * stride, 32, is_write=False)
        assert (0, 32) in result.writebacks


class TestAccounting:
    def test_hit_rate(self):
        cache = small_cache()
        cache.access(0, 32, is_write=False)
        cache.access(0, 32, is_write=False)
        assert cache.stats.get("t.read_hits") == 1
        assert cache.stats.get("t.read_misses") == 1

    def test_resident_lines_bounded(self):
        cache = small_cache()
        for i in range(1000):
            cache.access(i * 128, 32, is_write=False)
        max_lines = cache.config.num_sets * cache.config.ways
        assert cache.resident_lines() <= max_lines

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 16),
                              st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_capacity_invariant(self, accesses):
        cache = small_cache()
        for addr, is_write in accesses:
            cache.access(addr, 32, is_write)
        assert cache.resident_lines() <= cache.config.num_sets * cache.config.ways

    @given(st.lists(st.integers(min_value=0, max_value=1 << 14),
                    min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_immediate_rereference_always_hits(self, addresses):
        cache = small_cache()
        for addr in addresses:
            cache.access(addr, 32, is_write=False)
            assert not cache.access(addr, 32, is_write=False).missing_sectors


class TestConfigValidation:
    def test_bad_geometry_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            CacheConfig(name="bad", size_bytes=1000, ways=3, line_bytes=128,
                        sector_bytes=32, hit_latency_ns=1.0)

    def test_sector_must_divide_line(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            CacheConfig(name="bad", size_bytes=4096, ways=2, line_bytes=128,
                        sector_bytes=48, hit_latency_ns=1.0)
