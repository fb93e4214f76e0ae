"""Cross-launch trace cache: hits, misses, invalidation, byte budget.

The cache may only ever change wall-clock time.  Every test therefore
checks functional outputs alongside the hit/miss counters, and the
timing test pins the cached path's ``runtime_ns`` to the uncached one:
a cache of ``capacity`` 0, which keeps no entry and so never hits.
"""

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.config import NDPConfig, SystemConfig
from repro.exec.trace_cache import (
    MemStep,
    PhaseProfile,
    StaleTrace,
    StepLog,
    TraceCache,
    TraceEntry,
    recorded_bytes,
)
from repro.host.api import pack_args
from repro.kernels.reduction import REDUCE_SUM_I64
from repro.kernels.vecadd import VECADD
from repro.mem.cache import SectorStream
from repro.sim.stats import StatsRegistry
from repro.workloads.base import make_platform

N = 4096


def _cache_stats(platform):
    return (platform.stats.get("exec.trace_cache_hits"),
            platform.stats.get("exec.trace_cache_misses"))


def _uncached(platform):
    """``platform`` with every device's trace cache holding no entry."""
    for device in getattr(platform, "devices", [platform.device]):
        device.backend.trace_cache.capacity = 0
    return platform


def _setup_vecadd(platform, n=N, mult=3):
    runtime = platform.runtime
    a = (np.arange(n) * mult).astype(np.int64)
    b = (np.arange(n)[::-1] * mult).astype(np.int64)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(b)
    addr_c = runtime.alloc(a.nbytes)
    kid = runtime.register_kernel(VECADD)
    return runtime, kid, a, b, addr_a, addr_b, addr_c


def _launch(runtime, kid, addr_a, nbytes, args):
    handle = runtime.launch_kernel(kid, addr_a, addr_a + nbytes, args=args)
    instance = runtime.device.controller.instances[handle.instance_id]
    return instance


class TestHitsAndMisses:
    def test_repeat_launch_hits(self):
        platform = make_platform(backend="batched")
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(platform)
        args = pack_args(addr_b, addr_c)
        _launch(runtime, kid, addr_a, a.nbytes, args)
        assert _cache_stats(platform) == (0, 1)
        _launch(runtime, kid, addr_a, a.nbytes, args)
        _launch(runtime, kid, addr_a, a.nbytes, args)
        assert _cache_stats(platform) == (2, 1)
        assert np.array_equal(runtime.read_array(addr_c, np.int64, N), a + b)

    def test_cached_runtime_matches_uncached(self):
        results = {}
        for cached in (True, False):
            platform = make_platform(backend="batched")
            if not cached:
                _uncached(platform)
            runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(
                platform)
            args = pack_args(addr_b, addr_c)
            _launch(runtime, kid, addr_a, a.nbytes, args)
            second = _launch(runtime, kid, addr_a, a.nbytes, args)
            results[cached] = (second.runtime_ns,
                               runtime.read_array(addr_c, np.int64, N),
                               _cache_stats(platform)[0])
        cached_ns, cached_out, hits = results[True]
        uncached_ns, uncached_out, no_hits = results[False]
        assert (hits, no_hits) == (1, 0)
        assert np.array_equal(cached_out, uncached_out)
        assert cached_ns == pytest.approx(uncached_ns, rel=0.02)

    def test_data_change_between_hits_reexecutes(self):
        # a hit must re-run the functional replay: memory contents are not
        # part of the key and may have changed between launches
        platform = make_platform(backend="batched")
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(platform)
        args = pack_args(addr_b, addr_c)
        _launch(runtime, kid, addr_a, a.nbytes, args)
        b2 = b * 5
        platform.device.physical.store_array(addr_b, b2)
        _launch(runtime, kid, addr_a, a.nbytes, args)
        assert _cache_stats(platform) == (1, 1)
        assert np.array_equal(runtime.read_array(addr_c, np.int64, N),
                              a + b2)


class TestOneEntrySeveralCaches:
    """``trace_key`` does not bind the partition: on a carved device one
    cached entry — and its one sector stream — is replayed under every
    partition's L2, and these differ in their set count.  A stream that
    remembered the sets and tags of the first cache it was charged to
    would be silently wrong in the second."""

    @staticmethod
    def _runtimes(order, cached: bool):
        platform = make_cluster_platform(num_devices=1, partitions="a:1,b:3",
                                         backend="batched")
        if not cached:
            _uncached(platform)
        cluster = platform.runtime
        runtime = cluster.runtimes[0]
        device = runtime.device
        assert [p.l2.config.num_sets for p in device.partitions] == [513, 1535]
        n = 8192
        a = np.arange(n, dtype=np.int64)
        addr_a = cluster.alloc_array(a)
        addr_b = cluster.alloc_array(a)
        addr_c = cluster.alloc(a.nbytes)
        kid = cluster.register_kernel(VECADD, name="vecadd")
        runtimes = []
        for partition in order:
            handle = runtime.launch_async(
                kid, addr_a, addr_a + a.nbytes,
                args=pack_args(addr_b, addr_c), partition=partition,
                at_ns=cluster.sim.now)
            cluster.sim.run()
            runtimes.append(handle.instance.runtime_ns)
        assert np.array_equal(cluster.read_array(addr_c, np.int64, n), 2 * a)
        return runtimes, device.stats.get("exec.trace_cache_hits_batched")

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_hit_in_the_other_partition_is_charged_to_its_l2(self, order):
        cached, hits = self._runtimes(order, cached=True)
        uncached, no_hits = self._runtimes(order, cached=False)
        assert (hits, no_hits) == (1, 0)
        assert cached == uncached
        if order == (0, 1):
            assert cached == [1857.54296875, 824.0154622395839]


class TestInvalidation:
    def test_changed_pool_shape_misses(self):
        platform = make_platform(backend="batched")
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(platform)
        args = pack_args(addr_b, addr_c)
        _launch(runtime, kid, addr_a, a.nbytes, args)
        # half the pool: same kernel, different launch geometry
        _launch(runtime, kid, addr_a, a.nbytes // 2, args)
        assert _cache_stats(platform) == (0, 2)
        assert np.array_equal(runtime.read_array(addr_c, np.int64, N // 2),
                              (a + b)[:N // 2])

    def test_changed_args_miss(self):
        platform = make_platform(backend="batched")
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(platform)
        addr_d = runtime.alloc(a.nbytes)
        _launch(runtime, kid, addr_a, a.nbytes, pack_args(addr_b, addr_c))
        _launch(runtime, kid, addr_a, a.nbytes, pack_args(addr_b, addr_d))
        assert _cache_stats(platform) == (0, 2)
        expected = a + b
        assert np.array_equal(runtime.read_array(addr_c, np.int64, N),
                              expected)
        assert np.array_equal(runtime.read_array(addr_d, np.int64, N),
                              expected)

    def test_kernels_differing_only_in_finalizer_do_not_collide(self):
        # a SIMT entry caches the profile of *every* phase and a verified
        # replay reuses its fu_counts/lat_cycles: two kernels that share
        # body 0 and step counts but differ in their finalizer's
        # instruction mix must not hit each other's entry
        def kernel(op):
            return (".body\n    ld x4, 0(x1)\n    ret\n.final\n"
                    + f"    {op} x5, x5, x6\n" * 40 + "    ret\n")

        def warm_runtime_ns(ops):
            platform = make_platform(backend="batched")
            runtime = platform.runtime
            pool = runtime.alloc(N)
            for op in ops:
                kid = runtime.register_kernel(kernel(op))
                for _ in range(2):
                    instance = _launch(runtime, kid, pool, N, b"")
            return instance.runtime_ns, _cache_stats(platform)

        alone_ns, alone_stats = warm_runtime_ns(["mul"])
        after_add_ns, after_add_stats = warm_runtime_ns(["add", "mul"])
        assert alone_stats == (1, 1)
        assert after_add_stats == (2, 2)
        assert after_add_ns == alone_ns

    def test_changed_timing_config_uses_cold_cache(self):
        # a different NDPConfig builds a different device, so its cache
        # starts cold; outputs must match the default config bit for bit
        outputs = {}
        for label, system in (
            ("default", None),
            ("slow", SystemConfig(ndp=NDPConfig(freq_ghz=1.0))),
        ):
            platform = make_platform(system, backend="batched")
            runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(
                platform)
            args = pack_args(addr_b, addr_c)
            _launch(runtime, kid, addr_a, a.nbytes, args)
            assert _cache_stats(platform) == (0, 1)
            outputs[label] = runtime.read_array(addr_c, np.int64, N)
        assert np.array_equal(outputs["default"], outputs["slow"])

    def test_translation_change_invalidates(self):
        platform = make_platform(backend="batched")
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(platform)
        args = pack_args(addr_b, addr_c)
        _launch(runtime, kid, addr_a, a.nbytes, args)
        device = platform.device
        table = device.page_table(runtime.asid)
        # remap some unrelated page: adding it is not a change, replacing
        # its translation is
        scratch_vpn = 0x7F000
        table.map_page(scratch_vpn, scratch_vpn)
        version = device.translation_version
        table.map_page(scratch_vpn, scratch_vpn + 1)
        assert device.translation_version == version + 1
        _launch(runtime, kid, addr_a, a.nbytes, args)
        assert _cache_stats(platform) == (0, 2)
        assert np.array_equal(runtime.read_array(addr_c, np.int64, N), a + b)

    def test_divergent_control_flow_retraces(self):
        # the cached replay follows live branch outcomes; when a uniform
        # data-dependent branch flips between launches the recorded trace
        # no longer matches and the launch must retrace, not mis-time
        source = """
        .body
            ld      x4, 0(x3)        // flag address
            ld      x5, 0(x4)        // uniform flag value
            beqz    x5, slow
            li      x7, 111
            sd      x7, 0(x1)
            ret
        slow:
            li      x7, 222
            li      x8, 1
            add     x7, x7, x8
            sd      x7, 0(x1)
            ret
        """
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        flag_addr = runtime.alloc(8)
        platform.device.physical.write_u64(flag_addr, 1)
        pool = runtime.alloc(N)
        kid = runtime.register_kernel(source)
        args = pack_args(flag_addr)
        runtime.launch_kernel(kid, pool, pool + N, args=args)
        out = runtime.read_array(pool, np.int64, N // 8)
        assert np.all(out[::4] == 111)
        platform.device.physical.write_u64(flag_addr, 0)
        runtime.launch_kernel(kid, pool, pool + N, args=args)
        out = runtime.read_array(pool, np.int64, N // 8)
        assert np.all(out[::4] == 223)
        # the flipped branch is a retrace, not a hit
        assert _cache_stats(platform) == (0, 2)


#: Two launches of one masked-walk kernel whose *data* changes in
#: between: (kernel, lanes' data before, after).  Both keep the key, the
#: step count and the active-lane count; only the verified step differs.
_GATHER = """
.body
    ld   x20, 0(x3)          // per-lane data: four table byte offsets
    ld   x21, 8(x3)          // table
    li   x4, 4
    vsetvli x0, x4, e64
    add  x5, x20, x2
    vle64.v v1, (x5)
    vluxei64.v v2, (x21), v1 // gather addresses come from memory
    vse64.v v2, (x1)
    ret
"""
_PREDICATED = """
.body
    ld   x20, 0(x3)          // per-lane data: word 0 is the predicate
    add  x5, x20, x2
    ld   x6, 0(x5)
    beqz x6, skip            // divergent: the store's lanes come from memory
    ld   x21, 8(x3)
    ld   x7, 8(x21)
    sd   x7, 0(x1)
skip:
    ret
"""
_LANES = 256
_OFFSETS = (np.arange(_LANES * 4, dtype=np.int64) * 7 % 512) * 8
_PREDICATES = np.repeat(np.arange(_LANES, dtype=np.int64) % 2, 4)
_STALE_CASES = [
    pytest.param(_GATHER, _OFFSETS, _OFFSETS[::-1].copy(),
                 id="gather-indices-permuted"),
    pytest.param(_PREDICATED, _PREDICATES, 1 - _PREDICATES,
                 id="lane-predicates-flipped"),
]


class TestMaskedStaleReplay:
    @staticmethod
    def _two_launches(backend, source, before, after):
        platform = make_platform(backend=backend)
        runtime = platform.runtime
        data = runtime.alloc_array(before)
        table = runtime.alloc_array(np.arange(512, dtype=np.int64) * 3 + 1)
        out = runtime.alloc_array(np.full(_LANES * 4, -1, dtype=np.int64))
        kid = runtime.register_kernel(source)
        for lane_data in (before, after):
            platform.device.physical.store_array(data, lane_data)
            runtime.launch_kernel(kid, out, out + _LANES * 32,
                                  args=pack_args(data, table))
        return platform, runtime.read_array(out, np.int64, _LANES * 4)

    @pytest.mark.parametrize("source, before, after", _STALE_CASES)
    def test_stale_schedule_retraces(self, source, before, after):
        _, expected = self._two_launches("interpreter", source, before, after)
        platform, produced = self._two_launches("batched", source, before,
                                                after)
        assert np.array_equal(produced, expected)
        assert _cache_stats(platform) == (0, 2)
        assert platform.stats.get("exec.simt_launches") == 2
        assert platform.stats.get("exec.batched_fallbacks") == 0


def _global_step(**changed):
    """The uniform walk's form: every lane, compact addresses."""
    return {"op": "load", "size": 8, "vaddrs": np.array([64, 72]), **changed}


def _masked_step(**changed):
    """The masked walk's form: per-element lanes and routing."""
    return {"op": "amo", "size": 4, "vaddrs": np.array([64, 96]),
            "lanes": np.array([0, 2]), "spad": np.array([False, True]),
            "amo_op": "add", **changed}


_PADDRS = np.array([4160, 4168])


class TestStepLog:
    """The one record / verify implementation both walks call."""

    @staticmethod
    def _recording():
        log = StepLog()
        log.step(**_global_step(), translate=lambda: _PADDRS)
        log.step(**_masked_step(), translate=lambda: _PADDRS[:1])
        return log.steps

    @staticmethod
    def _never():
        raise AssertionError("a replay must not translate")

    def test_identical_steps_reuse_the_recorded_translation(self):
        recorded = self._recording()
        log = StepLog(recorded)
        first = log.step(**_global_step(), translate=self._never)
        second = log.step(**_masked_step(), translate=self._never)
        log.finish()
        assert first is recorded[0] and second is recorded[1]
        assert first.paddrs is _PADDRS
        assert log.steps is recorded and len(recorded) == 2

    @pytest.mark.parametrize("make, changed, message", [
        (_global_step, {"op": "store"}, "step shape"),
        (_global_step, {"size": 4}, "step shape"),
        (_masked_step, {"amo_op": "min"}, "step shape"),
        (_masked_step, {"amo_float": True}, "step shape"),
        (_global_step, {"vaddrs": np.array([64, 80])}, "addresses"),
        (_global_step, {"vaddrs": np.array(64)}, "addresses"),
        (_global_step, {"vaddrs": None}, "addresses"),
        (_masked_step, {"lanes": np.array([0, 1])}, "active lanes"),
        (_masked_step, {"lanes": None}, "active lanes"),
        (_masked_step, {"spad": np.array([True, True])}, "routing"),
        (_masked_step, {"spad": None}, "routing"),
        (_global_step, {"spad": True}, "routing"),
    ])
    def test_any_changed_field_is_stale(self, make, changed, message):
        log = StepLog(self._recording())
        if make is _masked_step:
            log.step(**_global_step())
        with pytest.raises(StaleTrace, match=message):
            log.step(**make(**changed), translate=self._never)

    def test_extra_step_is_stale(self):
        log = StepLog(self._recording())
        log.step(**_global_step())
        log.step(**_masked_step())
        with pytest.raises(StaleTrace, match="more memory steps"):
            log.step(**_global_step(), translate=self._never)

    def test_missing_step_is_stale_at_end_of_walk(self):
        log = StepLog(self._recording())
        log.step(**_global_step())
        with pytest.raises(StaleTrace, match="fewer memory steps"):
            log.finish()


class TestBypass:
    def test_simt_kernels_cache_their_mask_schedule(self):
        # phased/atomic kernels run on the masked SIMT engine and cache
        # their recorded schedule: the second identical launch is a hit,
        # and the replay re-runs functionally (the accumulator doubles)
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        n = 2048
        values = np.arange(n, dtype=np.int64)
        addr = runtime.alloc_array(values)
        out = runtime.alloc(8)
        kid = runtime.register_kernel(REDUCE_SUM_I64, scratchpad_bytes=64)
        for _ in range(2):
            runtime.launch_kernel(kid, addr, addr + n * 8,
                                  args=pack_args(out))
        assert runtime.read_array(out, np.int64, 1)[0] == 2 * values.sum()
        assert _cache_stats(platform) == (1, 1)
        assert platform.stats.get("exec.batched_fallbacks") == 0
        assert platform.stats.get("exec.simt_launches") == 2

    def test_capacity_zero_disables_cache(self):
        # no entry fits a budget of 0 bytes: each launch retraces
        platform = _uncached(make_platform(backend="batched"))
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(platform)
        args = pack_args(addr_b, addr_c)
        for _ in range(3):
            _launch(runtime, kid, addr_a, a.nbytes, args)
        cache = platform.device.backend.trace_cache
        assert (len(cache), cache.nbytes) == (0, 0)
        assert _cache_stats(platform) == (0, 3)
        assert platform.stats.get("exec.trace_cache_evictions") == 3
        assert platform.stats.get("exec.batched_launches") == 3
        assert np.array_equal(runtime.read_array(addr_c, np.int64, N), a + b)

    def test_capacity_is_bounded(self):
        # a byte budget of two full-size entries: each shorter launch
        # that follows evicts the least recently used one
        platform = make_platform(backend="batched")
        cache = platform.device.backend.trace_cache
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(platform)
        for offset in range(4):
            args = pack_args(addr_b, addr_c)
            _launch(runtime, kid, addr_a, a.nbytes - 32 * offset, args)
            if offset == 0:
                cache.capacity = 2 * cache.nbytes
        assert len(cache) == 2
        assert cache.nbytes <= cache.capacity
        assert platform.stats.get("exec.trace_cache_evictions") == 2


def _sized_entry(accesses: int, translation_version: int = 0) -> TraceEntry:
    """A recorded entry of ``9 * accesses`` bytes: one phase whose merged
    stream has ``accesses`` sector accesses (8 B address + 1 B flag)."""
    stream = SectorStream(np.zeros(accesses, dtype=np.int64),
                          np.zeros(accesses, dtype=bool), SystemConfig().l2)
    profile = PhaseProfile(n=1, ops=np.zeros(0, dtype=np.int64),
                           stream=stream)
    return TraceEntry(translation_version, "batched", [profile])


class TestByteBudget:
    """``TraceCache.capacity`` bounds recorded bytes, not entries."""

    @staticmethod
    def _cache(capacity: int) -> TraceCache:
        cache = TraceCache(StatsRegistry())
        cache.capacity = capacity
        return cache

    def test_recorded_bytes_count_a_shared_array_once(self):
        addrs = np.arange(8, dtype=np.int64) * 32
        entry = _sized_entry(10)
        # identity translation: the step's paddrs *is* its vaddrs
        entry.profiles[0].steps.append(MemStep("load", 8, addrs, addrs))
        assert recorded_bytes(entry) == 90 + addrs.nbytes
        entry.profiles[0].steps.append(
            MemStep("store", 8, addrs, addrs.copy()))
        assert recorded_bytes(entry) == 90 + 2 * addrs.nbytes

    def test_retained_bytes_never_exceed_the_budget(self):
        cache = self._cache(1000)
        rng = np.random.default_rng(7)
        for key in range(200):
            cache.store(("k", key), _sized_entry(int(rng.integers(1, 60))))
            assert cache.nbytes <= cache.capacity
            assert cache.nbytes == sum(
                entry.nbytes for entry in cache._entries.values())
        evictions = cache._stats.get("exec.trace_cache_evictions")
        assert evictions == 200 - len(cache) > 0

    def test_eviction_is_least_recently_used_first(self):
        cache = self._cache(3 * 9 * 10)         # three 90 B entries
        for key in "abc":
            cache.store(key, _sized_entry(10))
        assert cache.lookup("a", 0) is not None  # "b" is now the oldest
        cache.store("d", _sized_entry(10))
        assert cache.lookup("b", 0) is None
        assert all(cache.lookup(key, 0) is not None for key in "acd")
        # one entry twice the size evicts the two least recent: "a", "c"
        cache.store("e", _sized_entry(20))
        assert [key for key in "acde" if cache.lookup(key, 0)] == ["d", "e"]
        assert cache._stats.get("exec.trace_cache_evictions") == 3

    def test_entry_larger_than_the_budget_is_not_retained(self):
        cache = self._cache(100)
        cache.store("small", _sized_entry(10))
        cache.store("huge", _sized_entry(12))    # 108 B > 100 B
        assert cache.lookup("huge", 0) is None
        # ... and flushes nothing to make room it could never have
        assert cache.lookup("small", 0) is not None
        assert (len(cache), cache.nbytes) == (1, 90)
        assert cache._stats.get("exec.trace_cache_evictions") == 1

    def test_stale_and_invalidated_entries_release_their_bytes(self):
        cache = self._cache(1000)
        cache.store("a", _sized_entry(10))
        cache.store("b", _sized_entry(20))
        assert cache.lookup("a", translation_version=1) is None
        cache.invalidate("b")
        assert (len(cache), cache.nbytes) == (0, 0)
        assert "exec.trace_cache_evictions" not in \
            cache._stats.snapshot()

    def test_capacity_zero_retains_nothing(self):
        cache = self._cache(0)
        for key in range(3):
            cache.store(key, _sized_entry(1))
        assert (len(cache), cache.nbytes) == (0, 0)

    def test_more_live_slices_than_64_all_hit_after_the_first_cycle(self):
        # one device cycling over 96 distinct vecadd slices: every slice
        # is a key of its own and recurs every 96 launches, so an
        # entry-count bound of 64 would evict each just before it is due
        slices, lanes = 96, 64              # the batched walk's minimum
        n = slices * lanes * 4              # vecadd: 4 x i64 per µthread
        platform = make_platform(backend="batched")
        runtime, kid, a, b, addr_a, addr_b, addr_c = _setup_vecadd(
            platform, n=n)
        span = n * 8 // slices
        for _ in range(3):
            for s in range(slices):
                off = s * span
                _launch(runtime, kid, addr_a + off, span,
                        pack_args(addr_b + off, addr_c + off))
        assert _cache_stats(platform) == (2 * slices, slices)
        assert platform.stats.get("exec.batched_launches") == 3 * slices
        assert "exec.trace_cache_evictions" not in platform.stats.snapshot()
        assert np.array_equal(runtime.read_array(addr_c, np.int64, n), a + b)
