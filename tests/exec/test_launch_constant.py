"""The launch constant must not scale with the unit count.

A cached fast-engine launch charges its unit window's issue resources and
places its argument block with one array operation each, so what a launch
costs the host is (nearly) the same on a 4-unit and a 32-unit device.  This
guard counts Python-level calls instead of reading the host clock: a
per-unit x per-sub-core Python loop on the launch path (640 calls a launch
at 32 units before the issue bank; ratio 2.65) cannot return unnoticed.
The same counting guards a cached launch's memory charge and the point
engine's cached lane (last two tests).
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.config import default_system
from repro.exec import batched
from repro.exec.point import attempt_point
from repro.host.api import pack_args
from repro.host.offload import make_offload_path
from repro.kernels.vecadd import VECADD
from repro.ndp.device import M2NDPDevice
from repro.workloads import kvstore
from repro.workloads.base import make_platform

LAUNCHES = 10
N = 4096


def _calls_over_cached_launches(num_units: int) -> int:
    system = default_system()
    system = replace(system, ndp=replace(system.ndp, num_units=num_units))
    platform = make_platform(system, backend="batched")
    runtime = platform.runtime
    a = np.arange(N, dtype=np.int64)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(a)
    addr_c = runtime.alloc(a.nbytes)
    kid = runtime.register_kernel(VECADD, name="vecadd")

    def launch() -> None:
        runtime.launch_async(kid, addr_a, addr_a + a.nbytes,
                             args=pack_args(addr_b, addr_c), sync=False,
                             at_ns=runtime.sim.now)
        runtime.sim.run()

    launch()    # traces; every launch after it replays
    calls = 0

    def count(_frame, event, _arg) -> None:
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        for _ in range(LAUNCHES):
            launch()
    finally:
        sys.setprofile(None)
    stats = platform.stats
    assert stats.get("exec.batched_launches") == LAUNCHES + 1
    assert stats.get("exec.trace_cache_hits") == LAUNCHES
    assert np.array_equal(runtime.read_array(addr_c, np.int64, N), 2 * a)
    return calls


def test_cached_launch_calls_do_not_scale_with_units():
    small = _calls_over_cached_launches(4)
    large = _calls_over_cached_launches(32)
    assert large <= 1.35 * small, (small, large)


def _calls_inside_memory_charge() -> tuple[int, int]:
    """``call`` + ``c_call`` events between entering and leaving
    ``l2_dram_access_batch`` for one cached VECADD launch whose stream
    hits the L2 everywhere, and for one that fills all of it from DRAM."""
    platform = make_platform(backend="batched")
    runtime = platform.runtime
    a = np.arange(N, dtype=np.int64)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(a)
    addr_c = runtime.alloc(a.nbytes)
    kid = runtime.register_kernel(VECADD, name="vecadd")
    counts: list[int] = []
    charge = M2NDPDevice.l2_dram_access_batch

    def counted(device, *args, **kwargs):
        calls = 0

        def count(_frame, event, _arg) -> None:
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(count)
        try:
            return charge(device, *args, **kwargs)
        finally:
            sys.setprofile(None)
            counts.append(calls)

    def launch() -> None:
        runtime.launch_async(kid, addr_a, addr_a + a.nbytes,
                             args=pack_args(addr_b, addr_c), sync=False,
                             at_ns=runtime.sim.now)
        runtime.sim.run()

    flush = 1 << 18
    flush_a = runtime.alloc_array(np.zeros(flush, dtype=np.int64))
    flush_c = runtime.alloc(8 * flush)
    stats = platform.stats
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M2NDPDevice, "l2_dram_access_batch", counted)
        launch()                        # traces and fills the L2
        launch()
        misses = stats.get("l2.read_misses")
        launch()                        # replays, all hits
        assert stats.get("l2.read_misses") == misses
    # 2 MiB read and 2 MiB written through the 4 MiB L2 evict every line
    # the launches above left in it
    runtime.run_kernel(VECADD, flush_a, flush_a + 8 * flush,
                       args=pack_args(flush_a, flush_c))
    before = stats.get("l2.read_misses")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M2NDPDevice, "l2_dram_access_batch", counted)
        launch()                        # replays, all misses
    assert stats.get("exec.trace_cache_hits") == 3
    assert stats.get("l2.read_misses") - before == misses
    return counts[2], counts[3]


def test_cached_memory_charge_derives_nothing_per_replay():
    """A replay's memory charge is the state-dependent half only.

    What a cached launch's sector stream is — its line sort, first
    touches, per-line masks, set placement — is derived once per trace
    (``SectorStream``); the parent (d497f10) re-derived it in every
    ``access_batch``: 138 calls inside ``l2_dram_access_batch`` for an
    all-hit launch, counted exactly this way, against 48 now.  A launch
    that fills its whole stream from DRAM makes 327 (parent 769, of which
    a ``charge_batch`` per DRAM channel: the buses are one pass now).
    Above 70 / 420 a per-replay re-derivation or a per-channel Python
    loop is back.
    """
    all_hit, all_fill = _calls_inside_memory_charge()
    assert all_hit <= 70, all_hit
    assert all_fill <= 420, all_fill


def _calls_per_cached_get_lane() -> float:
    """Python-level calls inside ``attempt_point`` per replayed GET lane.

    A GET-only zipfian trace against a 512-item store; the first 100
    launches warm the family, then every launch whose lane replays is
    counted (``call`` + ``c_call`` events between entering and leaving
    ``attempt_point``: the replay, its loads, the commit, the timing and
    the launch tail).
    """
    platform = make_platform(backend="batched")
    data = kvstore.generate(512, 400, 1.0, "GETS")
    stats = platform.stats
    launches = calls = lanes = 0

    def count(_frame, event, _arg) -> None:
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    def counted(backend, execution, now_ns):
        nonlocal launches, calls, lanes
        launches += 1
        if launches <= 100:
            return attempt_point(backend, execution, now_ns)
        hits, before = stats.get("exec.trace_cache_hits_point"), calls
        sys.setprofile(count)
        try:
            attempt_point(backend, execution, now_ns)
        finally:
            sys.setprofile(None)
        if stats.get("exec.trace_cache_hits_point") == hits + 1:
            lanes += 1
        else:
            calls = before               # a walk: not what is guarded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched, "attempt_point", counted)
        result = kvstore.run_ndp(platform, data, make_offload_path("m2func"))
    assert result.correct and lanes >= 250
    return calls / lanes


def test_cached_get_lane_stays_compiled():
    """A cached GET lane must not be interpreted access by access.

    Commit 32e0b06 walked the trie with a ``resolve`` closure, an overlay
    read and a string dispatch per access: 407.7 calls per cached GET
    lane, counted exactly this way.  The compiled replay made 249.7, most
    of them the ``load -> translate -> read_bytes`` chain of its ~14
    loads.  With each global load inline (one ``dict.get`` and a page
    slice, unpacked straight into an int) and the traffic counters added
    once per launch it makes 165.1: what is left is the scratchpad
    argument loads, the commits and the launch tail.  The bound is that
    count plus 10 %; above it, a call per global load is back.
    """
    assert _calls_per_cached_get_lane() <= 1.1 * 165.1
