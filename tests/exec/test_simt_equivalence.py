"""Randomized differential suite: masked SIMT engine vs the interpreter.

Kernels are generated from composable blocks that exercise exactly the
launch classes the SIMT engine absorbed from the interpreter fallback:
µthread-divergent hammocks, data-dependent loop trip counts, shared and
per-lane scalar atomics (with and without consumed old values), indexed
vector gathers with reductions, vector atomics onto shared bins, and
indexed scatters.  For every seeded kernel the engine must produce
**byte-identical memory** to the interpreter with zero interpreter
fallbacks, deterministic `runtime_ns` (same launch, same platform state
=> same timing, cached or not), and analytic timing within a documented
factor of the interpreter's event-driven schedule.
"""

import numpy as np
import pytest

from repro.host.api import pack_args
from repro.workloads.base import make_platform

#: Body µthreads per generated launch (8 per NDP unit).
N_SLICES = 256

#: SIMT timing is an analytic roofline, not an event schedule; it must
#: stay within this factor of the interpreter on the generated kernels.
SIMT_TIMING_FACTOR = 4.0

_SEEDS = range(8)


# ---------------------------------------------------------------------------
# kernel generator
# ---------------------------------------------------------------------------
#
# Register conventions: the prologue pins x20=table, x21=out, x22=accum,
# x23=accum2, x25=bins, x26=scat, x24=slice index; blocks use x4..x12 and
# v1..v4 as scratch.  Blocks that write the per-lane out slice get a
# unique 8-byte offset so cross-step store hazards cannot trigger.

_PROLOGUE = """
    ld   x20, 0(x3)        // table (read-only i64)
    ld   x21, 8(x3)        // out   (one 32 B slice per lane)
    ld   x22, 16(x3)       // accum (shared 8 B atomic cells)
    ld   x23, 24(x3)       // accum2 (per-lane 8 B atomic cells)
    ld   x25, 32(x3)       // bins  (shared 4 B vamo cells)
    ld   x26, 40(x3)       // scat  (one 32 B scatter slice per lane)
    srli x24, x2, 5        // slice index
"""


def _block_hammock(i, off, rng):
    mask = int(rng.integers(1, 8))
    c1 = int(rng.integers(1, 100))
    c2 = int(rng.integers(1, 100))
    return f"""
    andi x4, x24, {mask}
    beqz x4, else_{i}
    slli x5, x24, 1
    addi x5, x5, {c1}
    j    end_{i}
else_{i}:
    addi x5, x24, {c2}
end_{i}:
    add  x6, x21, x2
    sd   x5, {off}(x6)
"""


def _block_loop(i, off, rng):
    scale = int(rng.integers(1, 4))
    return f"""
    andi x4, x24, 255
    slli x4, x4, 3
    add  x4, x20, x4
    ld   x5, 0(x4)         // data-dependent trip count
    li   x6, 0
loop_{i}:
    blez x5, done_{i}
    add  x6, x6, x5
    addi x5, x5, -{scale}
    j    loop_{i}
done_{i}:
    add  x7, x21, x2
    sd   x6, {off}(x7)
"""


def _block_shared_amo(i, off, rng):
    cells = int(rng.choice([16, 32, 64])) - 1
    return f"""
    andi x4, x24, {cells}
    slli x4, x4, 3
    add  x4, x22, x4
    addi x5, x24, 1
    amoadd.d x0, x5, (x4)   // shared cell: old value discarded
"""


def _block_private_amo(i, off, rng):
    c = int(rng.integers(1, 50))
    op = rng.choice(["amomax.d", "amomin.d", "amoadd.d"])
    return f"""
    slli x4, x24, 3
    add  x4, x23, x4
    addi x5, x24, {c}
    {op} x6, x5, (x4)       // per-lane cell: old value is deterministic
    add  x7, x21, x2
    sd   x6, {off}(x7)
"""


def _block_gather(i, off, rng):
    span = int(rng.choice([63, 127]))
    return f"""
    li   x4, 4
    vsetvli x0, x4, e64
    vid.v v1
    vsll.vi v1, v1, 3       // element offsets 0,8,16,24
    andi x5, x24, {span}
    slli x5, x5, 3
    add  x6, x20, x5
    vluxei64.v v2, (x6), v1
    vmv.v.i v3, 0
    vredsum.vs v4, v2, v3
    vmv.x.s x7, v4
    add  x8, x21, x2
    sd   x7, {off}(x8)
"""


def _block_vamo_bins(i, off, rng):
    groups = int(rng.choice([2, 4])) - 1
    return f"""
    li   x4, 4
    vsetvli x0, x4, e32
    vid.v v1
    vsll.vi v1, v1, 2
    andi x5, x24, {groups}
    slli x5, x5, 4
    vadd.vx v1, v1, x5      // shared bin byte offsets
    vmv.v.i v2, 1
    vamoadde32.v v2, (x25), v1
"""


def _block_scatter(i, off, rng):
    return """
    li   x4, 4
    vsetvli x0, x4, e64
    vid.v v1
    vsll.vi v1, v1, 3
    add  x5, x26, x2
    vmv.v.x v2, x24
    vsuxei64.v v2, (x5), v1   // per-lane scatter slice
"""


_BLOCKS = [_block_hammock, _block_loop, _block_shared_amo,
           _block_private_amo, _block_gather, _block_vamo_bins,
           _block_scatter]


def build_kernel(seed: int) -> str:
    rng = np.random.default_rng(1000 + seed)
    count = int(rng.integers(3, 6))
    picks = rng.choice(len(_BLOCKS), size=count, replace=False)
    writers = {_block_hammock, _block_loop, _block_private_amo,
               _block_gather}
    offsets = iter([0, 8, 16, 24])
    body = [".body", _PROLOGUE]
    for i, pick in enumerate(picks):
        block = _BLOCKS[pick]
        off = next(offsets) if block in writers else 0
        body.append(block(i, off, rng))
    body.append("    ret")
    return "\n".join(body)


def _run(backend: str, seed: int, launches: int = 1,
         cache_capacity: int | None = None):
    platform = make_platform(backend=backend)
    if cache_capacity is not None:
        platform.device.backend.trace_cache.capacity = cache_capacity
    runtime = platform.runtime
    rng = np.random.default_rng(2000 + seed)
    table = rng.integers(0, 8, 256).astype(np.int64)
    table_addr = runtime.alloc_array(table)
    out_addr = runtime.alloc(N_SLICES * 32)
    accum_addr = runtime.alloc_array(rng.integers(0, 100, 64).astype(np.int64))
    accum2_addr = runtime.alloc_array(
        rng.integers(0, 100, N_SLICES).astype(np.int64))
    bins_addr = runtime.alloc_array(np.zeros(64, dtype=np.int32))
    scat_addr = runtime.alloc(N_SLICES * 32)
    args = pack_args(table_addr, out_addr, accum_addr, accum2_addr,
                     bins_addr, scat_addr)
    kid = runtime.register_kernel(build_kernel(seed))
    runtime_ns = []
    for _ in range(launches):
        handle = runtime.launch_kernel(
            kid, out_addr, out_addr + N_SLICES * 32, args=args)
        instance = runtime.device.controller.instances[handle.instance_id]
        runtime_ns.append(instance.runtime_ns)
    snapshot = (
        runtime.read_array(out_addr, np.uint8, N_SLICES * 32).tobytes(),
        runtime.read_array(accum_addr, np.uint8, 64 * 8).tobytes(),
        runtime.read_array(accum2_addr, np.uint8, N_SLICES * 8).tobytes(),
        runtime.read_array(bins_addr, np.uint8, 64 * 4).tobytes(),
        runtime.read_array(scat_addr, np.uint8, N_SLICES * 32).tobytes(),
    )
    return platform, runtime_ns, snapshot


@pytest.mark.parametrize("seed", _SEEDS)
def test_memory_byte_identical_and_no_fallbacks(seed):
    _, ns_i, mem_i = _run("interpreter", seed)
    platform, ns_b, mem_b = _run("batched", seed)
    assert mem_b == mem_i
    assert platform.stats.get("exec.batched_fallbacks") == 0
    assert platform.stats.get("exec.simt_launches") == 1
    ratio = ns_b[0] / ns_i[0]
    assert 1.0 / SIMT_TIMING_FACTOR <= ratio <= SIMT_TIMING_FACTOR


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_runtime_ns_deterministic_across_runs(seed):
    _, ns_a, mem_a = _run("batched", seed)
    _, ns_b, mem_b = _run("batched", seed)
    assert ns_a == ns_b
    assert mem_a == mem_b


@pytest.mark.parametrize("seed", [1, 4])
def test_cached_replay_is_timing_and_byte_identical(seed):
    plat_cached, ns_cached, mem_cached = _run("batched", seed, launches=2)
    # capacity 0: every entry is evicted as it is stored, so both launches
    # trace afresh
    plat_uncached, ns_uncached, mem_uncached = _run(
        "batched", seed, launches=2, cache_capacity=0)
    assert plat_uncached.stats.get("exec.trace_cache_hits") == 0
    assert mem_cached == mem_uncached
    # the cached second launch replays the recorded mask schedule; its
    # timing charge is byte-identical to a fresh trace of the same state
    assert ns_cached[1] == pytest.approx(ns_uncached[1], rel=1e-9)
    assert plat_cached.stats.get("exec.trace_cache_hits") == 1
    assert plat_cached.stats.get("exec.trace_cache_misses") == 1


def test_stats_parity_with_interpreter():
    # functional stats the engines must agree on exactly: instruction and
    # µthread counts, traffic bytes, atomic counts
    _, _, _ = _run("interpreter", 0)
    plat_i, _, _ = _run("interpreter", 2)
    plat_b, _, _ = _run("batched", 2)
    for stat in ("ndp.instructions", "ndp.uthreads_spawned",
                 "ndp.uthreads_finished", "ndp.global_traffic_bytes",
                 "ndp.global_accesses", "ndp.global_atomics"):
        assert plat_b.stats.get(stat) == plat_i.stats.get(stat), stat
