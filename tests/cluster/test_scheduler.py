"""Fan-out scheduler: chunking, the three policies, P2P requirements."""

import pytest

from repro.cluster.placement import ShardMap
from repro.cluster.scheduler import LaunchScheduler, MAX_SUBLAUNCHES
from repro.errors import ConfigError

BASE = 0x2000_0000


def interleaved(devices=4, chunks=8, granule=4096):
    return ShardMap(base=BASE, size=chunks * granule, placement="interleaved",
                    num_devices=devices, shard_bytes=granule)


def blocked(devices=4, size=16 * 4096):
    return ShardMap(base=BASE, size=size, placement="blocked",
                    num_devices=devices, shard_bytes=4096)


def replicated(devices=4, size=16 * 4096):
    return ShardMap(base=BASE, size=size, placement="replicated",
                    num_devices=devices, shard_bytes=4096)


def total_span(subs):
    return sum(s.bound - s.base for s in subs)


class TestPlanInvariants:
    @pytest.mark.parametrize("policy",
                             ["locality", "round_robin", "least_outstanding"])
    @pytest.mark.parametrize("make_shard", [interleaved, blocked, replicated])
    def test_plan_covers_pool_exactly(self, policy, make_shard):
        shard = make_shard()
        scheduler = LaunchScheduler(policy, 4)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        assert total_span(subs) == shard.size
        assert subs[0].base == shard.base
        assert subs[-1].bound == shard.bound
        for a, b in zip(subs, subs[1:]):
            assert a.bound == b.base
        for sub in subs:
            assert sub.offset_bias == sub.base - shard.base
            assert 0 <= sub.device < 4

    def test_stride_alignment_of_interior_edges(self):
        shard = interleaved(devices=2, chunks=4, granule=4096)
        scheduler = LaunchScheduler("locality", 2)
        stride = 96     # does not divide 4096
        subs = scheduler.plan(shard, shard.base, shard.bound, stride)
        for sub in subs[:-1]:
            assert (sub.bound - shard.base) % stride == 0

    def test_single_device_single_sub(self):
        scheduler = LaunchScheduler("round_robin", 1)
        subs = scheduler.plan(None, BASE, BASE + 4096, 32)
        assert len(subs) == 1
        assert subs[0].device == 0
        assert subs[0].remote == {}

    def test_unmapped_pool_splits_evenly(self):
        scheduler = LaunchScheduler("round_robin", 4)
        subs = scheduler.plan(None, BASE, BASE + 64 * 4096, 32)
        assert len(subs) == 4
        assert {s.device for s in subs} == {0, 1, 2, 3}
        assert all(s.remote == {} for s in subs)

    def test_cap_on_sublaunch_count(self):
        # 1024 chunks over 4 devices would explode; plan falls back to one
        # even span per device
        shard = interleaved(devices=4, chunks=1024)
        scheduler = LaunchScheduler("locality", 4)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        assert len(subs) <= MAX_SUBLAUNCHES
        assert total_span(subs) == shard.size

    def test_empty_pool_rejected(self):
        scheduler = LaunchScheduler("locality", 2)
        with pytest.raises(ConfigError):
            scheduler.plan(None, BASE, BASE, 32)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            LaunchScheduler("random", 2)


class TestLocality:
    def test_follows_interleaved_owners(self):
        shard = interleaved()
        scheduler = LaunchScheduler("locality", 4)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        for sub in subs:
            assert sub.device == shard.owner_of(sub.base)
            assert sub.remote == {}

    def test_follows_blocked_owners(self):
        shard = blocked()
        scheduler = LaunchScheduler("locality", 4)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        assert [s.device for s in subs] == [0, 1, 2, 3]
        assert all(s.remote == {} for s in subs)

    def test_replicated_uses_all_devices_without_p2p(self):
        shard = replicated()
        scheduler = LaunchScheduler("locality", 4)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        assert {s.device for s in subs} == {0, 1, 2, 3}
        assert all(s.remote == {} for s in subs)


class TestRoundRobin:
    def test_cycles_devices(self):
        shard = interleaved(devices=4, chunks=8)
        scheduler = LaunchScheduler("round_robin", 4)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        assert [s.device for s in subs] == [0, 1, 2, 3, 0, 1, 2, 3]
        # interleaved ownership happens to match the cycle: no P2P
        assert all(s.remote == {} for s in subs)

    def test_misaligned_subrange_pays_p2p(self):
        # pool starts in device 1's chunk: round-robin assigns it to
        # device 0, which must pull the chunk over the switch
        shard = interleaved(devices=4, chunks=8)
        scheduler = LaunchScheduler("round_robin", 4)
        lo = shard.base + 4096          # chunk 1, owner 1
        subs = scheduler.plan(shard, lo, shard.bound, 32)
        assert subs[0].device == 0
        assert subs[0].remote == {1: 4096}
        total_remote = sum(sum(s.remote.values()) for s in subs)
        assert total_remote == 7 * 4096     # every chunk lands off-owner


class TestLeastOutstanding:
    def test_prefers_idle_devices(self):
        shard = replicated()
        scheduler = LaunchScheduler("least_outstanding", 4)
        scheduler.note_issued(0)
        scheduler.note_issued(0)
        scheduler.note_issued(1)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        # chunks flow to the least-loaded devices first (2 and 3)
        assert subs[0].device == 2
        assert subs[1].device == 3

    def test_balances_within_one_plan(self):
        shard = replicated()
        scheduler = LaunchScheduler("least_outstanding", 4)
        subs = scheduler.plan(shard, shard.base, shard.bound, 32)
        loads = [sum(1 for s in subs if s.device == d) for d in range(4)]
        assert max(loads) - min(loads) <= 1

    def test_outstanding_bookkeeping_roundtrip(self):
        scheduler = LaunchScheduler("least_outstanding", 2)
        scheduler.note_issued(1)
        assert scheduler.outstanding == [0, 1]
        scheduler.note_complete(1)
        assert scheduler.outstanding == [0, 0]
