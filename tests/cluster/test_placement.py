"""Placement math: shard→device mapping, segments, remote-byte accounting."""

import pytest

from repro.cluster.placement import (
    MIN_SHARD_BYTES,
    ClusterAllocator,
    ShardMap,
    auto_shard_bytes,
)
from repro.errors import ConfigError


def interleaved(base=0x1000, size=16 * 4096, devices=4, granule=4096):
    return ShardMap(base=base, size=size, placement="interleaved",
                    num_devices=devices, shard_bytes=granule)


class TestShardMapInterleaved:
    def test_round_robin_ownership(self):
        shard = interleaved()
        for chunk in range(16):
            addr = shard.base + chunk * 4096
            assert shard.owner_of(addr) == chunk % 4
            assert shard.owner_of(addr + 4095) == chunk % 4

    def test_is_local_matches_owner(self):
        shard = interleaved()
        assert shard.remote_bytes(shard.base, shard.base + 4096, 0) == {}
        assert shard.remote_bytes(shard.base, shard.base + 4096, 1) == {
            0: 4096}
        assert shard.remote_bytes(shard.base + 4096, shard.base + 8192,
                                  1) == {}

    def test_owner_segments_cover_range_exactly(self):
        shard = interleaved()
        segments = shard.owner_segments(shard.base, shard.bound)
        assert segments[0][1] == shard.base
        assert segments[-1][2] == shard.bound
        for (_, _, hi), (_, lo, _) in zip(segments, segments[1:]):
            assert hi == lo
        assert len(segments) == 16

    def test_partial_range_segments(self):
        shard = interleaved()
        lo = shard.base + 4096 + 128          # inside chunk 1
        hi = shard.base + 3 * 4096 + 64       # inside chunk 3
        segments = shard.owner_segments(lo, hi)
        assert segments == [
            (1, lo, shard.base + 2 * 4096),
            (2, shard.base + 2 * 4096, shard.base + 3 * 4096),
            (3, shard.base + 3 * 4096, hi),
        ]

    def test_remote_bytes_excludes_own_shards(self):
        shard = interleaved()
        remote = shard.remote_bytes(shard.base, shard.bound, device=0)
        # device 0 owns 4 of 16 chunks; the other 12 split across 3 peers
        assert remote == {1: 4 * 4096, 2: 4 * 4096, 3: 4 * 4096}

    def test_device_bytes_balanced(self):
        shard = interleaved()
        assert [shard.device_bytes(d) for d in range(4)] == [4 * 4096] * 4


class TestShardMapBlocked:
    def test_contiguous_blocks(self):
        shard = ShardMap(base=0, size=8 * 4096, placement="blocked",
                         num_devices=4, shard_bytes=4096)
        assert shard.block_bytes == 2 * 4096
        assert shard.owner_of(0) == 0
        assert shard.owner_of(2 * 4096) == 1
        assert shard.owner_of(7 * 4096) == 3

    def test_uneven_size_last_device_takes_tail(self):
        shard = ShardMap(base=0, size=9 * 4096, placement="blocked",
                         num_devices=4, shard_bytes=4096)
        # ceil(9/4) pages = 3 pages per block; device 3 only has the tail
        assert shard.owner_of(8 * 4096) == 2
        assert shard.owner_of(9 * 4096 - 1) == 2
        assert shard.device_bytes(3) == 0

    def test_segments_merge_within_block(self):
        shard = ShardMap(base=0, size=8 * 4096, placement="blocked",
                         num_devices=2, shard_bytes=4096)
        assert shard.owner_segments(0, 8 * 4096) == [
            (0, 0, 4 * 4096), (1, 4 * 4096, 8 * 4096)
        ]


class TestShardMapReplicated:
    def test_local_everywhere(self):
        shard = ShardMap(base=0, size=4096, placement="replicated",
                         num_devices=4, shard_bytes=4096)
        for device in range(4):
            assert shard.remote_bytes(0, 4096, device) == {}
        assert shard.owner_segments(0, 4096) == [(-1, 0, 4096)]
        assert shard.device_bytes(2) == 4096


class TestShardMapErrors:
    def test_unknown_placement(self):
        with pytest.raises(ConfigError):
            ShardMap(base=0, size=1, placement="scattered",
                     num_devices=2, shard_bytes=4096)

    def test_out_of_range_owner_lookup(self):
        shard = interleaved()
        with pytest.raises(ConfigError):
            shard.owner_of(shard.bound)
        with pytest.raises(ConfigError):
            shard.owner_segments(shard.base - 1, shard.bound)

    def test_empty_range_has_no_segments(self):
        shard = interleaved()
        assert shard.owner_segments(shard.base, shard.base) == []


class TestAutoShardBytes:
    def test_never_below_page(self):
        assert auto_shard_bytes(64, 8) == MIN_SHARD_BYTES

    def test_page_multiple(self):
        granule = auto_shard_bytes(10 << 20, 4)
        assert granule % MIN_SHARD_BYTES == 0
        # ~4 chunks per device
        assert (10 << 20) / (granule * 4) == pytest.approx(4, rel=0.5)


class _FakeAllocator:
    def __init__(self, start=0x2000):
        self.cursor = start

    def alloc(self, size, align=4096):
        addr = (self.cursor + align - 1) // align * align
        self.cursor = addr + size
        return addr


class TestClusterAllocator:
    def test_lockstep_same_addresses(self):
        alloc = ClusterAllocator([_FakeAllocator(), _FakeAllocator()],
                                 num_devices=2)
        shard = alloc.alloc(8192)
        assert shard.base == 0x2000
        assert alloc.alloc(4096).base == shard.bound

    def test_out_of_lockstep_rejected(self):
        alloc = ClusterAllocator([_FakeAllocator(0), _FakeAllocator(0x100000)],
                                 num_devices=2)
        with pytest.raises(ConfigError):
            alloc.alloc(4096)

    def test_map_for_finds_containing_allocation(self):
        alloc = ClusterAllocator([_FakeAllocator()], num_devices=1)
        first = alloc.alloc(8192)
        second = alloc.alloc(8192)
        assert alloc.map_for(first.base + 100) is first
        assert alloc.map_for(second.base) is second
        assert alloc.map_for(second.bound + 4096) is None

    def test_placement_and_granule_overrides(self):
        alloc = ClusterAllocator([_FakeAllocator(), _FakeAllocator()],
                                 num_devices=2, default_placement="blocked")
        assert alloc.alloc(8192).placement == "blocked"
        shard = alloc.alloc(8192, placement="replicated", shard_bytes=8192)
        assert shard.placement == "replicated"
        assert shard.shard_bytes == 8192
