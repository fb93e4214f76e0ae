"""The launch constant must not scale with the unit count.

A cached fast-engine launch charges its unit window's issue resources and
places its argument block with one array operation each, so what a launch
costs the host is (nearly) the same on a 4-unit and a 32-unit device.  This
guard counts Python-level calls instead of reading the host clock: a
per-unit x per-sub-core Python loop on the launch path (640 calls a launch
at 32 units before the issue bank; ratio 2.65) cannot return unnoticed.
"""

import sys
from dataclasses import replace

import numpy as np

from repro.config import default_system
from repro.host.api import pack_args
from repro.kernels.vecadd import VECADD
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
                             args=pack_args(addr_b, addr_c), sync=False)
        runtime.wait_all()

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
