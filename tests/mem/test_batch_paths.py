"""Bulk charge paths vs their scalar references.

The vectorized `access_batch` APIs must reproduce the per-access loops
they replace: same hit/miss/eviction classification and stats for the
sector cache, same row classification, stats and bank/bus state for the
DRAM model (timing to FP noise), and identical virtual-time evolution for
the servers.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, lpddr5_cxl_dram, memory_side_l2_config
from repro.errors import ConfigError, SimulationError
from repro.mem import dram as dram_module
from repro.mem.cache import SectorCache, SectorStream
from repro.mem.dram import DRAMModel
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.sim.engine import (BandwidthServer, IssueServer,
                              virtual_queue_finish, virtual_queues_finish)
from repro.sim.stats import StatsRegistry


def _cache_pair(cfg):
    s1, s2 = StatsRegistry(), StatsRegistry()
    return (SectorCache(cfg, s1, "l2", write_allocate=True, write_back=True),
            SectorCache(cfg, s2, "l2", write_allocate=True, write_back=True),
            s1, s2)


def _drive_scalar(cache, addrs, writes):
    fills, wbs = [], []
    for k, (a, w) in enumerate(zip(addrs, writes)):
        r = cache.access(int(a), cache.config.sector_bytes, bool(w))
        fills.extend(s for s, _ in r.missing_sectors)
        wbs.extend((k, s) for s, _ in r.writebacks)
    return fills, wbs


class TestSectorCacheBatch:
    def test_cold_streaming_matches_scalar(self):
        cfg = memory_side_l2_config()
        c1, c2, s1, s2 = _cache_pair(cfg)
        addrs = (np.arange(5000) * 32).astype(np.int64)
        writes = np.zeros(5000, dtype=bool)
        writes[::3] = True
        fills_ref, wb_ref = _drive_scalar(c1, addrs, writes)
        res = c2.access_batch(SectorStream(addrs, writes, cfg))
        assert addrs[~res.hit_mask].tolist() == fills_ref
        assert wb_ref == []
        assert res.wb_addrs.size == 0
        assert s1.counters("l2") == s2.counters("l2")

    def test_random_reuse_matches_scalar(self):
        cfg = memory_side_l2_config()
        c1, c2, s1, s2 = _cache_pair(cfg)
        gen = np.random.default_rng(7)
        addrs = (gen.integers(0, 2000, 8000) * 32).astype(np.int64)
        writes = gen.random(8000) < 0.4
        fills_ref, wb_ref = _drive_scalar(c1, addrs, writes)
        res = c2.access_batch(SectorStream(addrs, writes, cfg))
        assert addrs[~res.hit_mask].tolist() == fills_ref
        assert s1.counters("l2") == s2.counters("l2")
        assert c1.resident_lines() == c2.resident_lines()

    def test_capacity_overflow_matches_scalar(self):
        small = CacheConfig("t", 16 * 1024, 4, 128, 32, 1.0)
        c1, c2, s1, s2 = _cache_pair(small)
        addrs = (np.arange(4000) * 32).astype(np.int64)
        writes = np.zeros(4000, dtype=bool)
        writes[1::2] = True
        fills_ref, wb_ref = _drive_scalar(c1, addrs, writes)
        res = c2.access_batch(SectorStream(addrs, writes, small))
        assert addrs[~res.hit_mask].tolist() == fills_ref
        # writeback events match as (position, sector) multisets: the
        # batch path groups victims per set before emitting
        got = sorted(zip(res.wb_idx.tolist(), res.wb_addrs.tolist()))
        assert sorted(wb_ref) == got
        assert s1.counters("l2") == s2.counters("l2")
        assert c1.resident_lines() == c2.resident_lines()

    def test_state_carries_across_batches(self):
        cfg = memory_side_l2_config()
        c1, c2, s1, s2 = _cache_pair(cfg)
        addrs = (np.arange(3000) * 32).astype(np.int64)
        reads = np.zeros(3000, dtype=bool)
        _drive_scalar(c1, addrs, reads)
        stream = SectorStream(addrs, reads, cfg)
        c2.access_batch(stream)
        # second pass re-reads everything: all hits on both paths
        fills_ref, _ = _drive_scalar(c1, addrs, reads)
        res = c2.access_batch(stream)
        assert fills_ref == []
        assert res.hit_mask.all()
        assert s1.counters("l2") == s2.counters("l2")

    def test_rejects_write_through_configs(self):
        cfg = memory_side_l2_config()
        cache = SectorCache(cfg, StatsRegistry(), "l1",
                            write_allocate=False, write_back=False)
        with pytest.raises(NotImplementedError):
            cache.access_batch(SectorStream(
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), cfg))

    # 4 sets x 4 ways, and a footprint of 16 lines: no set ever overflows,
    # which is where the batch path is specified to equal the scalar one
    _CHUNKS = st.lists(
        st.tuples(st.booleans(),
                  st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                           min_size=1, max_size=40)),
        min_size=1, max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(_CHUNKS)
    def test_any_interleaving_of_entry_points_matches_scalar(self, chunks):
        cfg = CacheConfig("t", 4 * 4 * 128, 4, 128, 32, 1.0)
        ref, mixed, s_ref, s_mixed = _cache_pair(cfg)
        for use_batch, accesses in chunks:
            addrs = np.array([sid * 32 for sid, _ in accesses], dtype=np.int64)
            writes = np.array([w for _, w in accesses], dtype=bool)
            fills_ref, wb_ref = _drive_scalar(ref, addrs, writes)
            if use_batch:
                res = mixed.access_batch(SectorStream(addrs, writes, cfg))
                fills, wbs = addrs[~res.hit_mask].tolist(), list(
                    zip(res.wb_idx.tolist(), res.wb_addrs.tolist()))
            else:
                fills, wbs = _drive_scalar(mixed, addrs, writes)
            assert fills == fills_ref
            assert wbs == wb_ref == []
            assert s_mixed.counters("l2") == s_ref.counters("l2")
            assert mixed.resident_lines() == ref.resident_lines()

    # a stream over 32 lines of the same 16-line cache: sets overflow and
    # dirty victims write back.  Between its charges the state evolves
    # under other streams and scalar accesses
    _ACCESSES = st.lists(st.tuples(st.integers(0, 127), st.booleans()),
                         min_size=1, max_size=60)
    _EVOLUTIONS = st.lists(
        st.lists(st.tuples(st.booleans(), _ACCESSES), max_size=3),
        min_size=2, max_size=6)

    @settings(max_examples=60, deadline=None)
    @given(_ACCESSES, _EVOLUTIONS)
    def test_reused_stream_equals_fresh_stream_per_call(self, accesses,
                                                        evolutions):
        cfg = CacheConfig("t", 4 * 4 * 128, 4, 128, 32, 1.0)
        fresh, reused, s_fresh, s_reused = _cache_pair(cfg)

        def arrays(pairs):
            return (np.array([sid * 32 for sid, _ in pairs], dtype=np.int64),
                    np.array([w for _, w in pairs], dtype=bool))

        stream = SectorStream(*arrays(accesses), cfg)
        for interlude in evolutions:
            for use_batch, other in interlude:
                for cache in (fresh, reused):
                    if use_batch:
                        cache.access_batch(SectorStream(*arrays(other), cfg))
                    else:
                        _drive_scalar(cache, *arrays(other))
            want = fresh.access_batch(SectorStream(*arrays(accesses), cfg))
            got = reused.access_batch(stream)
            for field in ("hit_mask", "wb_idx", "wb_addrs"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), field
            assert s_reused.counters("l2") == s_fresh.counters("l2")
            for state in ("_tag", "_valid", "_dirty", "_stamp"):
                assert np.array_equal(getattr(reused, state),
                                      getattr(fresh, state)), state

    def test_one_stream_charges_caches_of_different_set_counts(self):
        # placement is memoized per set count, nothing else about a cache
        narrow = CacheConfig("n", 4 * 4 * 128, 4, 128, 32, 1.0)
        wide = CacheConfig("w", 16 * 4 * 128, 4, 128, 32, 1.0)
        gen = np.random.default_rng(5)
        addrs = (gen.integers(0, 256, 300) * 32).astype(np.int64)
        writes = gen.random(300) < 0.5
        stream = SectorStream(addrs, writes, narrow)
        for cfg in (narrow, wide, narrow, wide):
            want, got, s_want, s_got = _cache_pair(cfg)
            for _ in range(2):
                ref = want.access_batch(SectorStream(addrs, writes, cfg))
                res = got.access_batch(stream)
                assert np.array_equal(res.hit_mask, ref.hit_mask)
                assert res.wb_addrs.tolist() == ref.wb_addrs.tolist()
            assert s_got.counters("l2") == s_want.counters("l2")

    def test_rejects_a_stream_of_another_line_geometry(self):
        cfg = memory_side_l2_config()
        cache, _, _, _ = _cache_pair(cfg)
        wide = CacheConfig("w", 2 * 2 * 512, 2, 512, 32, 1.0)
        stream = SectorStream(np.zeros(1, dtype=np.int64),
                              np.zeros(1, dtype=bool), wide)
        with pytest.raises(ValueError, match="another line geometry"):
            cache.access_batch(stream)

    def test_empty_stream_is_no_special_case(self):
        cfg = memory_side_l2_config()
        cache, _, stats, _ = _cache_pair(cfg)
        res = cache.access_batch(SectorStream(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), cfg))
        assert [a.size for a in (res.hit_mask, res.wb_idx,
                                 res.wb_addrs)] == [0, 0, 0]
        assert stats.counters("l2") == {} and cache.resident_lines() == 0

    def test_sixteen_sectors_per_line(self):
        # 512 B lines: the sector masks need more than eight bits
        cfg = CacheConfig("w", 2 * 2 * 512, 2, 512, 32, 1.0)
        c1, c2, s1, s2 = _cache_pair(cfg)
        # dirty sectors 0 and 15 of line 0, then lines 2 and 4 of the same
        # set: line 2 takes the free way, line 4 evicts line 0
        addrs = np.array([0, 15 * 32, 2 * 512, 4 * 512 + 9 * 32],
                         dtype=np.int64)
        writes = np.array([True, True, False, False])
        fills_ref, wb_ref = _drive_scalar(c1, addrs, writes)
        first = c2.access_batch(SectorStream(addrs[:2], writes[:2], cfg))
        second = c2.access_batch(SectorStream(addrs[2:], writes[2:], cfg))
        assert wb_ref == [(3, 0), (3, 15 * 32)]
        assert first.wb_addrs.size == 0
        assert (second.wb_idx + 2).tolist() == [3, 3]
        assert second.wb_addrs.tolist() == [0, 15 * 32]
        assert s1.counters("l2") == s2.counters("l2")
        # sector 9 of line 4 is resident on both, sector 15 is not
        for cache in (c1, c2):
            assert not cache.access(4 * 512 + 9 * 32, 32, False).missing_sectors
            assert cache.access(4 * 512 + 15 * 32, 32, False).missing_sectors


class TestDRAMBatch:
    def test_matches_scalar_reference(self):
        cfg = lpddr5_cxl_dram()
        gen = np.random.default_rng(0)
        addrs = (gen.integers(0, (1 << 22) // 32, 5000) * 32).astype(np.int64)
        arrivals = np.cumsum(gen.uniform(0.5, 4.0, 5000))
        writes = gen.random(5000) < 0.3
        s1, s2 = StatsRegistry(), StatsRegistry()
        d1, d2 = DRAMModel(cfg, s1), DRAMModel(cfg, s2)
        ref = np.array([
            d1.access(int(a), 32, float(t), bool(w))
            for a, t, w in zip(addrs, arrivals, writes)
        ])
        got = d2.access_batch(addrs, 32, arrivals, writes)
        assert got == pytest.approx(ref, rel=1e-9)
        assert s1.counters("dram") == s2.counters("dram")
        assert d1._open_row.tolist() == d2._open_row.tolist()
        assert d1._ready_ns == pytest.approx(d2._ready_ns, abs=1e-6)
        assert d1._last_activate_ns == pytest.approx(d2._last_activate_ns,
                                                     abs=1e-6)

    @staticmethod
    def _row_counters(d):
        return tuple(d.stats.get(f"dram.{name}")
                     for name in ("row_hits", "row_misses", "row_conflicts"))

    def test_state_carries_into_scalar_path(self):
        d = DRAMModel(lpddr5_cxl_dram(), StatsRegistry())
        addrs = (np.arange(256) * 32).astype(np.int64)
        d.access_batch(addrs, 32, np.full(256, 10.0), np.zeros(256, bool))
        # the same sector again, later: its row must still be open
        hits, misses, conflicts = self._row_counters(d)
        d.access(int(addrs[0]), 32, 1e6, False)
        assert self._row_counters(d) == (hits + 1, misses, conflicts)

    def test_scalar_state_carries_into_batch_path(self):
        d = DRAMModel(lpddr5_cxl_dram(), StatsRegistry())
        d.access(0, 32, 10.0, False)
        assert self._row_counters(d) == (0, 1, 0)
        # a batch to the row the scalar access opened is one more hit
        d.access_batch(np.zeros(1, dtype=np.int64), 32,
                       np.array([1e6]), np.zeros(1, bool))
        assert self._row_counters(d) == (1, 1, 0)


def _server_per_queue(arrivals, cost, server, busy_until):
    """The reference for ``virtual_queues_finish``: one ``BandwidthServer``
    per server, charged server by server (the parent's DRAM buses)."""
    finish = np.empty(arrivals.size, dtype=np.float64)
    for s in np.unique(server):
        one = BandwidthServer(1.0)
        one.transfer(float(busy_until[s]), 0)
        mask = server == s
        finish[mask] = one.charge_batch(arrivals[mask], cost)
        busy_until[s] = one.occupancy_end()
    return finish


class TestManyQueuesOnePass:
    SERVERS = 32
    COST = 32 / 12.8                    # one LPDDR5 burst on its channel bus

    @staticmethod
    def _grid():
        gen = np.random.default_rng(9)
        servers = TestManyQueuesOnePass.SERVERS
        return {
            "spread": gen.integers(0, servers, 3000),
            "one-server": np.full(2000, 7),
            "one-arrival": np.array([servers - 1]),
            "two-servers": np.where(gen.random(500) < 0.9, 0, 31),
            "in-order": np.arange(4 * servers) % servers,
        }

    @pytest.mark.parametrize("pattern", ["spread", "one-server",
                                         "one-arrival", "two-servers",
                                         "in-order"])
    @pytest.mark.parametrize("busy", ["idle", "busy"])
    def test_equals_a_bandwidth_server_per_queue(self, pattern, busy):
        server = self._grid()[pattern].astype(np.int64)
        gen = np.random.default_rng(server.size)
        # arrivals dense enough to queue and sparse enough to drain
        arrivals = np.cumsum(gen.uniform(0.0, 0.4, server.size)) \
            + gen.uniform(0.0, 40.0, server.size)
        got_busy = gen.uniform(0.0, 200.0, self.SERVERS) \
            if busy == "busy" else np.zeros(self.SERVERS)
        want_busy, before = got_busy.copy(), got_busy.copy()
        for _ in range(2):              # the second batch queues on the first
            got = virtual_queues_finish(arrivals, self.COST, server, got_busy)
            want = _server_per_queue(arrivals, self.COST, server, want_busy)
            assert np.array_equal(got, want)
            assert np.array_equal(got_busy, want_busy)
        untouched = np.setdiff1d(np.arange(self.SERVERS), server)
        assert np.array_equal(got_busy[untouched], before[untouched])

    def test_dram_scalar_and_batch_interleaved_share_the_bus_state(
            self, monkeypatch):
        # every batch's bus pass is checked against the per-channel servers
        # and every scalar burst against a `BandwidthServer` of its own
        # (`_ready_ns` holds the burst's CAS time)
        cfg = lpddr5_cxl_dram()
        model = DRAMModel(cfg, StatsRegistry())
        passes = []

        def checked(arrivals, cost, server, busy_until, workspace):
            want_busy = busy_until.copy()
            want = _server_per_queue(arrivals, cost, server, want_busy)
            got = virtual_queues_finish(arrivals, cost, server, busy_until,
                                        workspace)
            assert busy_until is model._bus_busy_until
            assert np.array_equal(got, want)
            assert np.array_equal(busy_until, want_busy)
            passes.append(arrivals.size)
            return got

        monkeypatch.setattr(dram_module, "virtual_queues_finish", checked)
        gen = np.random.default_rng(4)
        now = 0.0
        for chunk in range(12):
            n = int(gen.integers(1, 200))
            addrs = (gen.integers(0, (1 << 20) // 32, n) * 32).astype(np.int64)
            arrivals = now + np.cumsum(gen.uniform(0.0, 2.0, n))
            now = float(arrivals[-1])
            writes = gen.random(n) < 0.3
            if chunk % 2:
                model.access_batch(addrs, 32, arrivals, writes)
                continue
            for a, t, w in zip(addrs.tolist(), arrivals.tolist(),
                               writes.tolist()):
                channel, bank, _row = model.layout.coordinates(a)
                bus = BandwidthServer(cfg.channel_bw_bytes_per_ns)
                bus.transfer(float(model._bus_busy_until[channel]), 0)
                finish = model.access(a, 32, t, w)
                bank += channel * cfg.banks_per_channel
                assert bus.transfer(float(model._ready_ns[bank]), 32) == finish
                assert model._bus_busy_until[channel] \
                    == bus.occupancy_end()
        assert len(passes) == 6

    def test_dram_rejects_non_positive_bandwidth(self):
        with pytest.raises(ConfigError, match="channel_bw_bytes_per_ns"):
            replace(lpddr5_cxl_dram(), channel_bw_bytes_per_ns=0.0)
        # the model keeps its own guard for a config built around the check
        config = lpddr5_cxl_dram()
        object.__setattr__(config, "channel_bw_bytes_per_ns", 0.0)
        with pytest.raises(SimulationError, match="positive bandwidth"):
            DRAMModel(config)


class TestPhysicalRowRuns:
    """A contiguous run of rows is copied as slices; every other address
    pattern takes the page-grouped index path.  Same bytes either way."""

    # (first address, rows, row size): crossing pages, starting mid-page,
    # a single row, a single row that crosses a page
    RUNS = [(PAGE_SIZE - 96, 300, 32), (1000, 64, 8), (5 * PAGE_SIZE, 1, 64),
            (PAGE_SIZE - 8, 1, 32), (3 * PAGE_SIZE + 40, 200, 24)]

    @pytest.mark.parametrize("base,n,size", RUNS)
    def test_gather_run_matches_generic_path(self, base, n, size):
        mem = PhysicalMemory()
        gen = np.random.default_rng(n)
        # written only in the middle: both ends of the run are pages that
        # were never written and read as zeros
        image = np.zeros(n * size, dtype=np.uint8)
        lo, hi = (n * size) // 4, (3 * n * size) // 4
        image[lo:hi] = gen.integers(1, 256, hi - lo)
        mem.write_bytes(base + lo, image[lo:hi].tobytes())
        pages = set(mem._pages)
        paddrs = base + np.arange(n, dtype=np.int64) * size
        run = mem.gather_rows(paddrs, size)
        assert run.tobytes() == image.tobytes() \
            == mem.read_bytes(base, n * size)
        assert run.flags.writeable
        generic = mem.gather_rows(paddrs[::-1], size)   # not a run
        assert np.array_equal(generic[::-1], run)
        assert set(mem._pages) == pages                 # reads create nothing

    @pytest.mark.parametrize("base,n,size", RUNS)
    def test_scatter_run_matches_generic_path(self, base, n, size):
        rows = np.random.default_rng(n).integers(
            0, 256, (n, size)).astype(np.uint8)
        paddrs = base + np.arange(n, dtype=np.int64) * size
        run, generic = PhysicalMemory(), PhysicalMemory()
        run.scatter_rows(paddrs, rows)
        generic.scatter_rows(paddrs[::-1], rows[::-1])  # not a run
        assert run.read_bytes(base, n * size) == rows.tobytes() \
            == generic.read_bytes(base, n * size)
        # never-written pages were created, the same ones on both paths
        assert set(run._pages) == set(generic._pages) != set()

    def test_later_rows_win_off_the_run_path(self):
        mem = PhysicalMemory()
        rows = np.arange(24, dtype=np.uint8).reshape(3, 8)
        # rows 0 and 1 overlap by four bytes; row 2 rewrites row 0's start
        mem.scatter_rows(np.array([100, 104, 100], dtype=np.int64), rows)
        assert mem.read_bytes(100, 12) == bytes(
            [16, 17, 18, 19, 20, 21, 22, 23, 12, 13, 14, 15])

    def test_later_in_page_row_wins_over_a_crossing_row(self):
        mem = PhysicalMemory()
        rows = np.array([[1] * 8, [2] * 8], dtype=np.uint8)
        # row 0 crosses into page 1; row 1 rewrites its first six bytes
        mem.scatter_rows(np.array([PAGE_SIZE - 6, PAGE_SIZE - 8]), rows)
        assert mem.read_bytes(PAGE_SIZE - 8, 10) == bytes([2] * 8 + [1] * 2)

    # addresses cluster at both ends of pages 0-2, so rows cross pages
    # and overlap often; a small pool makes repeated addresses common
    ADDRS = st.builds(lambda page, offset: page * PAGE_SIZE + offset,
                      st.integers(0, 2),
                      st.one_of(st.integers(0, 24),
                                st.integers(PAGE_SIZE - 24, PAGE_SIZE - 1)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(1, 40),
           shape=st.sampled_from(["run", "reversed", "pool"]),
           written=st.sets(st.integers(0, 4)))
    def test_rows_match_per_row_bytes(self, data, size, shape, written):
        if shape == "pool":
            pool = data.draw(st.lists(self.ADDRS, min_size=1, max_size=5))
            addrs = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                       max_size=12))
        else:
            n = data.draw(st.integers(1, 12))
            addrs = data.draw(self.ADDRS) + size * np.arange(n)
            addrs = addrs[::-1] if shape == "reversed" else addrs
        paddrs = np.array(addrs, dtype=np.int64)
        gen = np.random.default_rng(size)
        rows = gen.integers(0, 256, (paddrs.size, size), dtype=np.uint8)
        mem, reference = PhysicalMemory(), PhysicalMemory()
        for page in sorted(written):    # pages not listed were never written
            image = gen.integers(0, 256, PAGE_SIZE, dtype=np.uint8).tobytes()
            mem.write_bytes(page * PAGE_SIZE, image)
            reference.write_bytes(page * PAGE_SIZE, image)

        pages = set(mem._pages)
        got = mem.gather_rows(paddrs, size)
        assert got.shape == (paddrs.size, size)
        assert got.tobytes() == b"".join(
            mem.read_bytes(int(a), size) for a in paddrs)
        one = mem.gather_rows(paddrs[0].reshape(()), size)     # 0-d form
        assert one.shape == (size,)
        assert one.tobytes() == mem.read_bytes(int(paddrs[0]), size)
        assert set(mem._pages) == pages                 # reads create nothing

        mem.scatter_rows(paddrs, rows)
        for addr, row in zip(paddrs, rows):             # later rows win
            reference.write_bytes(int(addr), row.tobytes())
        assert {i: bytes(p) for i, p in mem._pages.items()} \
            == {i: bytes(p) for i, p in reference._pages.items()}


class TestCoherenceBatch:
    def test_batch_bi_count_matches_scalar(self):
        # two 32 B sectors share one 64 B host line: the scalar loop
        # invalidates it once; the batch path must not double-charge
        from repro.config import CXLConfig
        from repro.cxl.hdm import HDMCoherence
        from repro.cxl.link import CXLLink

        addrs = np.array([0, 32, 64, 96], dtype=np.int64)
        counts = {}
        for label in ("scalar", "batch"):
            stats = StatsRegistry()
            coherence = HDMCoherence(CXLLink(CXLConfig(), stats),
                                     dirty_fraction=0.9, stats=stats)
            if label == "scalar":
                now = 0.0
                for a in addrs:
                    coherence.access(int(a), 32, now)
            else:
                coherence.access_batch(addrs, 32, np.zeros(4))
            counts[label] = stats.get("hdm.back_invalidations")
        assert counts["scalar"] == counts["batch"]


class TestServerBatch:
    def test_bandwidth_charge_batch_matches_transfer_loop(self):
        gen = np.random.default_rng(3)
        arrivals = np.cumsum(gen.uniform(0.0, 2.0, 1000))
        sizes = gen.integers(32, 512, 1000)
        a, b = BandwidthServer(64.0), BandwidthServer(64.0)
        ref = [a.transfer(float(t), int(s)) for t, s in zip(arrivals, sizes)]
        got = b.charge_batch(arrivals, sizes)
        assert got == pytest.approx(np.array(ref), rel=1e-12)
        assert a.bytes_transferred == b.bytes_transferred
        # a cumsum against a chain of adds: equal to the last digit or so,
        # not bit for bit (4274.655673334288 vs ...287 on this stream)
        assert a.occupancy_end() == pytest.approx(b.occupancy_end(),
                                                  rel=1e-12)
        assert b.occupancy_end() == got[-1]

    def test_issue_service_batch_matches_issue_loop(self):
        a, b = IssueServer(4, 0.5), IssueServer(4, 0.5)
        for _ in range(37):
            a.issue(10.0)
        finish = b.service_batch(10.0, 37)
        assert a.busy_until == pytest.approx(b.busy_until)
        assert finish == pytest.approx(a.busy_until)
        assert a.ops_issued == b.ops_issued

    def test_virtual_queue_finish_closed_form(self):
        arrivals = np.array([0.0, 1.0, 10.0])
        costs = np.array([4.0, 4.0, 4.0])
        # 0->4, queued 4->8, idle gap then 10->14
        assert virtual_queue_finish(arrivals, costs).tolist() == [4, 8, 14]
        assert virtual_queue_finish(arrivals, costs, busy_until=20.0)[
            0] == pytest.approx(24.0)
