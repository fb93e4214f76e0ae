"""Scratchpad shadows of the masked walk cover only what a launch writes.

A launch's scratchpad writes land on a per-unit shadow of the byte range
it wrote (whole pages), and only that range is written back on success.
These kernels read on both sides of such a range and across its edge,
and abort after writing, and compare with the interpreter; the last test
bounds what one wide HISTO launch allocates while it runs.
"""

import tracemalloc

import numpy as np
import pytest

from repro.exec.simt import SimtPlan
from repro.host.api import pack_args
from repro.workloads import histogram
from repro.workloads.base import make_platform

#: Body µthreads per launch: 8 per NDP unit.
LANES = 256

#: Fills scratchpad offsets [0x2000, 0x3000) of every unit: slot s writes
#: 8 bytes at 0x2000 + 64 s.  It runs first, so the next launch finds
#: bytes of its own in the row outside what that launch writes.
FILL = """
.init
    slli x4, x2, 6
    li   x5, 0x10002000
    add  x4, x5, x4
    slli x6, x1, 10
    add  x6, x6, x2
    addi x6, x6, 1
    sd   x6, 0(x4)          // unit * 1024 + slot + 1
    ret
.body
    ret
"""

#: The initializer writes the 8 bytes ending at 0x1000 + 64 (s + 1) for
#: slot s: the page [0x1000, 0x2000) is the shadow's range.  Each body
#: lane then reads inside that range, wholly outside it, and across its
#: upper edge, and stores what it read.
READ_AROUND = """
.init
    slli x4, x2, 6
    li   x5, 0x10001038
    add  x4, x5, x4
    slli x6, x1, 12
    add  x6, x6, x2
    addi x6, x6, 7
    slli x6, x6, 32
    add  x6, x6, x2         // (unit * 4096 + slot + 7) << 32 | slot
    sd   x6, 0(x4)
    ret
.body
    srli x20, x2, 5         // lane index
    srli x21, x20, 5        // lane index within its unit
    slli x21, x21, 6
    li   x22, 0x10001038
    add  x22, x22, x21
    ld   x5, 0(x22)         // inside the range
    li   x23, 0x10002000
    add  x23, x23, x21
    ld   x6, 0(x23)         // outside it
    li   x24, 0x10001ffc
    ld   x7, 0(x24)         // across its edge
    ld   x8, 0(x3)          // out
    add  x8, x8, x2
    sd   x5, 0(x8)
    sd   x6, 8(x8)
    sd   x7, 16(x8)
    ret
"""

#: Writes the scratchpad in both phases, then a body lane reads back its
#: own scratchpad store: a RAW through memory the walk does not order, so
#: the launch falls back (slug ``raw``) after its shadows took writes.
ABORT_AFTER_WRITES = """
.init
    slli x4, x2, 3
    li   x5, 0x10003000
    add  x4, x5, x4
    sd   x1, 0(x4)
    ret
.body
    srli x20, x2, 5
    slli x21, x20, 3
    li   x22, 0x10005000
    add  x22, x22, x21
    sd   x20, 0(x22)
    ld   x6, 0(x22)
    ld   x8, 0(x3)
    add  x8, x8, x2
    sd   x6, 0(x8)
    ret
"""


def _launch(platform, source: str, out: int):
    runtime = platform.runtime
    return runtime.run_kernel(source, out, out + LANES * 32,
                              args=pack_args(out))


def _run(backend: str):
    platform = make_platform(backend=backend)
    out = platform.runtime.alloc(LANES * 32)
    _launch(platform, FILL, out)
    _launch(platform, READ_AROUND, out)
    read = platform.runtime.read_array(out, np.int64, LANES * 4)
    return platform, read


def test_reads_around_the_written_range_match_the_interpreter():
    _, expected = _run("interpreter")
    platform, read = _run("batched")
    assert platform.stats.get("exec.simt_launches") == 2
    assert platform.stats.get("exec.batched_fallbacks") == 0
    np.testing.assert_array_equal(read, expected)
    # the three reads saw what they should, not just the same as the
    # reference: this launch's write, the earlier launch's, and half of each
    lane = np.arange(LANES)
    unit, k = lane % 32, lane // 32
    inside, outside, edge = read.reshape(LANES, 4)[:, :3].T
    np.testing.assert_array_equal(inside, (unit * 4096 + k + 7) << 32 | k)
    np.testing.assert_array_equal(outside, unit * 1024 + k + 1)
    # the upper half of slot 63's write, then the lower half of the fill
    np.testing.assert_array_equal(
        edge, (unit * 4096 + 63 + 7) | (unit * 1024 + 1) << 32)


def test_scratchpads_equal_the_interpreter_after_commit():
    reference, _ = _run("interpreter")
    platform, _ = _run("batched")
    assert np.array_equal(platform.device.scratchpads,
                          reference.device.scratchpads)


def test_a_fallback_leaves_the_scratchpads_as_they_were(monkeypatch):
    platform, _ = _run("batched")
    # the launch writes its argument block before the walk starts, so
    # "before" is the state the walk starts from
    before, after_rollback = [], []
    run, rollback = SimtPlan.run, SimtPlan.rollback

    def recording_run(plan):
        before.append(plan.device.scratchpads.copy())
        return run(plan)

    def recording_rollback(plan):
        assert plan.spad_shadows, "the walk wrote no scratchpad"
        rollback(plan)
        after_rollback.append(plan.device.scratchpads.copy())

    monkeypatch.setattr(SimtPlan, "run", recording_run)
    monkeypatch.setattr(SimtPlan, "rollback", recording_rollback)
    out = platform.runtime.alloc(LANES * 32)
    _launch(platform, ABORT_AFTER_WRITES, out)
    assert platform.stats.get("exec.fallback_reason.raw") == 1
    assert len(before) == len(after_rollback) == 1
    assert np.array_equal(after_rollback[0], before[0])

    # the interpreter then ran the launch from that state
    monkeypatch.undo()
    reference, _ = _run("interpreter")
    ref_out = reference.runtime.alloc(LANES * 32)
    _launch(reference, ABORT_AFTER_WRITES, ref_out)
    assert np.array_equal(platform.device.scratchpads,
                          reference.device.scratchpads)
    assert np.array_equal(
        platform.runtime.read_array(out, np.int64, LANES * 4),
        reference.runtime.read_array(ref_out, np.int64, LANES * 4))


#: Elements of the HISTO launch whose allocations are bounded.
HISTO_ELEMENTS = 1 << 15

#: Traced bytes per element one histo4096 launch of ``HISTO_ELEMENTS``
#: may hold at its peak.  The walk with range shadows and no per-element
#: AMO temporaries reads 271 (8.5 MB, most of it the launch's recorded
#: trace and other fixed costs); this bound is that plus 25 %.  Shadows
#: of whole 128 KiB rows and per-element old values read 435.
MAX_PEAK_BYTES_PER_ELEMENT = 340


def test_one_wide_histo_launch_stays_inside_its_allocation_budget():
    # a first launch pays the process's one-time costs (imports, decoded
    # programs); the bound is on what every launch costs
    histogram.run_ndp(make_platform(), histogram.generate(1 << 11, 4096))
    data = histogram.generate(HISTO_ELEMENTS, 4096, salt=1)
    platform = make_platform()
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        result = histogram.run_ndp(platform, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.correct
    assert platform.stats.get("exec.simt_launches") == 1
    assert peak <= MAX_PEAK_BYTES_PER_ELEMENT * HISTO_ELEMENTS, (
        f"{peak / HISTO_ELEMENTS:.0f} bytes per element at the peak")
