"""The compiled point-path replay against two oracles.

``exec/point.py`` compiles a family's decision trie into one straight-line
Python function.  Every scenario here runs three times:

* on the **interpreter** backend — the oracle for bytes;
* on the batched backend with :func:`_reference_replay_lane` patched in —
  the interpretive trie walk the compiler replaced, kept here as the
  reference for *timing*: ``runtime_ns``, per-lane ``lane_complete_ns``,
  every recorded ``entry.lat`` and the whole stats snapshot must be equal,
  not close;
* on the batched backend as shipped (the compiled replay).
"""

import linecache
import traceback
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TranslationFault
from repro.exec import point
from repro.exec.trace_cache import MAX_POINT_PATHS
from repro.host.api import pack_args
from repro.isa.executor import _BRANCHES, _BRANCHES_Z, MemAccess
from repro.isa.registers import to_signed64, to_unsigned64
from repro.kernels.kvstore import (KVS_GET, KVS_GET_SCATTER, KVS_SET,
                                   KVS_SET_SCATTER)
from repro.workloads import kvstore
from repro.workloads.base import make_platform


# ---------------------------------------------------------------------------
# the reference: the trie walked step by step, spec by spec
# ---------------------------------------------------------------------------


def _reference_replay_lane(unit, family, x1, x2, x3, t0, asid, period,
                           traffic):
    """Phase A as an interpreter over the trie; phase B as shipped."""
    memory = unit.memory_for(asid)
    live = {"x1": x1, "x2": x2, "x3": x3}
    writes: list[tuple[int, bytes]] = []
    loads: dict[int, tuple[bytes, bool]] = {}
    refresh = family.replays % point._REFRESH_PERIOD == 0
    spad_lo, spad_hi = unit._spad_base, unit._spad_end
    spad_bytes = glob_bytes = glob_count = 0

    def read(vaddr, size):
        merged = bytearray(memory.load(vaddr, size))
        for base, data in writes:
            lo, hi = max(base, vaddr), min(base + len(data), vaddr + size)
            if lo < hi:
                merged[lo - vaddr:hi - vaddr] = data[lo - base:hi - base]
        return bytes(merged)

    def resolve(spec):
        if isinstance(spec, int):
            return spec
        total = spec[1]
        for tok, coef in spec[2]:
            if isinstance(tok, tuple):
                raw, signed = loads[tok[1]]
                total += coef * int.from_bytes(raw, "little", signed=signed)
            else:
                total += coef * live[tok]
        return total

    timeline, pre_total = [], 0
    node = family.root
    try:
        while True:
            for _, pre, accesses in node.mems:
                events = []
                for access in accesses:
                    kind, size = access[0], access[2]
                    addr = to_unsigned64(resolve(access[1]))
                    if spad_lo <= addr < spad_hi:
                        spad_bytes += size
                    else:
                        glob_bytes += size
                        glob_count += 1
                    if kind == "ld":
                        raw = read(addr, size)
                        loads[access[3]] = (raw, access[4])
                        events.append(MemAccess(addr, size, is_write=False))
                    else:
                        spec = access[3]
                        if spec[0] == "lit":
                            raw = spec[1]
                        elif spec[0] == "pass":
                            raw = loads[spec[1]][0]
                        else:
                            value = to_signed64(resolve(spec[1]))
                            raw = ((value & ((1 << (8 * spec[2])) - 1))
                                   .to_bytes(spec[2], "little"))
                        writes.append((addr, raw))
                        events.append(MemAccess(addr, size, is_write=True))
                timeline.append((pre, tuple(events)))
                pre_total += pre
            if node.guard is None:
                entry = node.entry
                if entry is None:
                    raise point._PathMismatch
                break
            m, a, b = node.guard
            av = a[1] if a[0] == "lit" else to_signed64(resolve(a[1]))
            if b is None:
                outcome = _BRANCHES_Z[m](av)
            else:
                bv = b[1] if b[0] == "lit" else to_signed64(resolve(b[1]))
                outcome = _BRANCHES[m](av, bv)
            node = node.children.get(outcome)
            if node is None:
                raise point._PathMismatch
    except TranslationFault:
        raise point._PathMismatch from None

    for addr, raw in writes:
        memory.store(addr, raw)
    family.replays += 1
    entry.replays += 1
    if refresh:
        t = t0
        new_lat = []
        for pre, events in timeline:
            t += pre * period
            issue = t
            t = unit.timed_accesses(events, t, asid)
            new_lat.append(t - issue)
        entry.lat = new_lat
        entry.lat_sum = sum(new_lat)
    else:
        traffic[0] += spad_bytes
        traffic[1] += glob_bytes
        traffic[2] += glob_count
        t = t0 + pre_total * period + entry.lat_sum
    return t + entry.tail_cycles * period, entry


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _families(platform) -> list:
    cache = platform.device.backend.trace_cache
    return [family for key, family in cache._entries.items()
            if key[0] == "point"]


def _leaves(node) -> list:
    if node.guard is None:
        return [node.entry] if node.entry is not None else []
    return [leaf for outcome in (True, False) if outcome in node.children
            for leaf in _leaves(node.children[outcome])]


class _Run:
    """One platform running one scenario; collects what must agree."""

    def __init__(self, backend: str) -> None:
        self.platform = make_platform(backend=backend)
        self.runtime = self.platform.runtime
        self.bytes: list[bytes] = []
        self.timing: list[tuple] = []

    def launch(self, kid, lo, hi, args=b"", stride=32):
        handle = self.runtime.launch_kernel(kid, lo, hi, args=args,
                                            stride=stride)
        instance = self.runtime.device.controller.instances[
            handle.instance_id]
        self.timing.append((instance.runtime_ns, instance.lane_complete_ns))
        return instance

    def read(self, addr: int, size: int) -> bytes:
        raw = self.runtime.device.physical.read_bytes(addr, size)
        self.bytes.append(raw)
        return raw

    def counters(self) -> tuple[int, int]:
        stats = self.platform.stats
        return (int(stats.get("exec.trace_cache_hits_point")),
                int(stats.get("exec.trace_cache_misses")))

    def lat(self) -> list:
        return [[leaf.lat, leaf.lat_sum, leaf.replays]
                for family in _families(self.platform)
                for leaf in _leaves(family.root)]


def _differential(scenario, monkeypatch, min_hits: int = 1):
    """Run ``scenario(run)`` on the three engines and compare them."""
    oracle = _Run("interpreter")
    scenario(oracle)
    compiled = _Run("batched")
    scenario(compiled)
    with monkeypatch.context() as patch:
        patch.setattr(point, "_replay_lane", _reference_replay_lane)
        reference = _Run("batched")
        scenario(reference)
    assert compiled.bytes == oracle.bytes
    assert compiled.bytes == reference.bytes
    assert compiled.timing == reference.timing
    assert compiled.lat() == reference.lat()
    assert compiled.platform.stats.snapshot() == \
        reference.platform.stats.snapshot()
    assert compiled.counters()[0] >= min_hits, "scenario never replayed"
    assert all(f.compiles == 0 for f in _families(reference.platform))
    return compiled


# ---------------------------------------------------------------------------
# KVStore op sequences
# ---------------------------------------------------------------------------

BUCKETS, PRESENT, KEYS = 4, 12, 20     # 4 chains, 12 keys in, 8 more to SET


def _kv_data() -> kvstore.KVStoreData:
    gen = np.random.default_rng(7)
    keys = gen.integers(1, 1 << 63, (KEYS, kvstore.KEY_WORDS),
                        dtype=np.uint64)
    bucket_of = kvstore.hash_key(keys, BUCKETS)
    none = np.zeros(0)
    return kvstore.KVStoreData(
        buckets=BUCKETS, keys=keys[:PRESENT],
        bucket_of=bucket_of[:PRESENT],
        chain_position=np.zeros(PRESENT, dtype=np.int64),
        arrival_ns=none, is_get=none.astype(bool),
        item=none.astype(np.int64), mix_name="test"), keys, bucket_of


def _kv_scenario(ops):
    """GET/SET single-µthread launches, one per drawn ``(is_get, key)``."""
    data, keys, bucket_of = _kv_data()

    def scenario(run: _Run) -> None:
        runtime = run.runtime
        table = kvstore.setup_table(runtime, data, spare_nodes=len(ops) + 1)
        get_kid = runtime.register_kernel(KVS_GET, name="kvs_get")
        set_kid = runtime.register_kernel(KVS_SET, name="kvs_set")
        slots = runtime.alloc(128 * len(ops), align=128)
        for i, (is_get, key_id) in enumerate(ops):
            key = tuple(int(w) for w in keys[key_id])
            bucket_ptr = table.buckets_addr + 8 * int(bucket_of[key_id])
            slot = slots + 128 * i
            if is_get:
                args, kid = pack_args(bucket_ptr, *key), get_kid
            else:
                node = table.spare_addr + table.spare_used * 128
                table.spare_used += 1
                kvstore._prewrite_node(runtime, node, key, 1000 + i)
                args, kid = pack_args(bucket_ptr, *key, node), set_kid
            run.launch(kid, slot, slot + 32, args=args)
            run.read(slot, 72)
        run.read(table.buckets_addr, 8 * BUCKETS)
        run.read(table.nodes_addr, 128 * PRESENT)
        run.read(table.spare_addr, 128 * table.spare_used)

    return scenario


class TestKVStoreSequences:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, KEYS - 1)),
                    min_size=12, max_size=40))
    def test_drawn_get_set_sequences(self, ops):
        # GET hits at every chain depth, GET misses (keys not yet SET),
        # SET inserts (the amoswap relinks the chain head, so later GETs
        # of that bucket walk one node deeper) and SET overwrites
        with pytest.MonkeyPatch.context() as patch:
            _differential(_kv_scenario(ops), patch, min_hits=0)

    def test_every_depth_hits_after_warmup(self, monkeypatch):
        ops = [(True, k) for k in range(KEYS)]          # hits + misses
        ops += [(False, k) for k in range(PRESENT, KEYS)]   # inserts
        ops += [(False, k) for k in range(KEYS)]        # overwrites
        ops += [(True, k) for k in range(KEYS)] * 2     # all hit now
        run = _differential(_kv_scenario(ops), monkeypatch, min_hits=40)
        statuses = [int.from_bytes(raw[64:72], "little")
                    for raw in run.bytes[:len(ops)]]
        assert statuses[:KEYS] == [1] * PRESENT + [0] * (KEYS - PRESENT)
        assert statuses[KEYS:2 * KEYS - PRESENT] == [2] * (KEYS - PRESENT)
        assert statuses[-2 * KEYS:] == [1] * (2 * KEYS)

    def test_scatter_lanes_time_each_lane(self, monkeypatch):
        # the fused serving shape: N µthreads, one descriptor each, GET
        # and SET kernels; lane_complete_ns is per lane and must agree
        data, keys, bucket_of = _kv_data()

        def scenario(run: _Run) -> None:
            runtime = run.runtime
            table = kvstore.setup_table(runtime, data, spare_nodes=64)
            get_kid = runtime.register_kernel(KVS_GET_SCATTER)
            set_kid = runtime.register_kernel(KVS_SET_SCATTER)
            ring = runtime.alloc(64 * 8, align=128)
            slots = runtime.alloc(128 * 8, align=128)
            for batch, is_get in enumerate([True, False, True, True, False,
                                            True]):
                ids = [(3 * batch + 5 * lane) % KEYS for lane in range(6)]
                if not is_get:
                    ids = sorted(set(ids))   # one SET per key per launch
                for lane, key_id in enumerate(ids):
                    words = [table.buckets_addr + 8 * int(bucket_of[key_id]),
                             *(int(w) for w in keys[key_id])]
                    if is_get:
                        words.append(slots + 128 * lane)
                    else:
                        node = table.spare_addr + table.spare_used * 128
                        table.spare_used += 1
                        kvstore._prewrite_node(runtime, node, words[1:],
                                               key_id)
                        words += [node, slots + 128 * lane]
                    runtime.device.physical.write_bytes(
                        ring + 64 * lane, pack_args(*words))
                run.launch(get_kid if is_get else set_kid, ring,
                           ring + 64 * len(ids), stride=64)
                run.read(slots, 128 * len(ids))
            run.read(table.spare_addr, 128 * table.spare_used)

        run = _differential(scenario, monkeypatch, min_hits=10)
        assert all(lanes is not None and len(lanes) >= 4
                   for _, lanes in run.timing)


# ---------------------------------------------------------------------------
# uncached lanes, store-buffer forwarding, AMOs
# ---------------------------------------------------------------------------

#: ``andi`` consumes the load non-linearly.  No loaded bytes are verified
#: at replay, so the lane is never cached and walks every launch.
MASK_KERNEL = """
.body
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    andi x6, x5, 255
    sd   x6, 0(x1)
    ret
"""


def _mask_scenario(ops):
    """``None`` launches MASK_KERNEL; an int rewrites the loaded word."""
    def scenario(run: _Run) -> None:
        runtime = run.runtime
        data = runtime.alloc_array(np.array([0x1234], dtype=np.int64))
        out = runtime.alloc(32)
        kid = runtime.register_kernel(MASK_KERNEL)
        for op in ops:
            if op is None:
                run.launch(kid, out, out + 32, args=pack_args(data))
                run.read(out, 8)
            else:
                runtime.device.physical.store_array(
                    data, np.array([0x5600 + op], dtype=np.int64))

    return scenario


class TestStaleFamilies:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=6,
                    max_size=24))
    def test_mutations_between_launches(self, ops):
        # every launch walks, so the launch after a rewrite reads the new
        # word: bytes equal the interpreter's, and nothing is cached
        with pytest.MonkeyPatch.context() as patch:
            run = _differential(_mask_scenario(ops), patch, min_hits=0)
        assert run.counters() == (0, ops.count(None))
        assert _families(run.platform) == []

    def test_stale_then_hit_again(self, monkeypatch):
        ops = [None, None, 1, None, None, 2, None, None]
        run = _differential(_mask_scenario(ops), monkeypatch, min_hits=0)
        assert run.counters() == (0, 6)     # six walks, no replay
        assert [raw[0] for raw in run.bytes] == [0x34, 0x34, 1, 1, 2, 2]


#: Each lane stores to its own block and reads the bytes back — whole,
#: partially (a 4-byte read inside the 8 stored bytes) and next to them.
FORWARD_KERNEL = """
.body
    ld   x4, 0(x3)
    add  x4, x4, x2
    slli x5, x2, 28
    addi x5, x5, 77
    sd   x5, 0(x4)
    ld   x6, 0(x4)
    lw   x7, 4(x4)
    ld   x8, 8(x4)
    add  x9, x6, x7
    add  x9, x9, x8
    sd   x9, 16(x4)
    ld   x10, 16(x4)
    sd   x10, 0(x1)
    ret
"""


def test_store_then_load_forwards_the_buffered_bytes(monkeypatch):
    lanes = 6

    def scenario(run: _Run) -> None:
        runtime = run.runtime
        blocks = runtime.alloc_array(
            np.arange(4 * lanes, dtype=np.int64) * -3)
        out = runtime.alloc(32 * lanes)
        kid = runtime.register_kernel(FORWARD_KERNEL)
        for _ in range(3):
            run.launch(kid, out, out + 32 * lanes, args=pack_args(blocks))
            run.read(out, 32 * lanes)
            run.read(blocks, 32 * lanes)

    run = _differential(scenario, monkeypatch, min_hits=lanes)
    family, = _families(run.platform)
    text = "".join(linecache.getlines(family.filename))
    assert "forward(" in text
    # the merge is emitted only behind a store on the same path
    assert text.index("forward(") > text.index("c.append(")
    got = np.frombuffer(run.bytes[0], dtype=np.int64).reshape(lanes, 4)[:, 0]
    lane = np.arange(lanes)
    stored = (lane << 33) + 77           # x2 = 32 * lane, shifted by 28
    assert got.tolist() == (stored + (stored >> 32)
                            - 3 * (4 * lane + 1)).tolist()


#: int AMOs with literal and affine operands (4 and 8 bytes), float AMOs
#: (4 and 8 bytes), and loads behind them that must see the new bytes.
#: The point engine records no AMO, so these lanes walk uncached.
AMO_KERNEL = """
.body
    ld   x4, 0(x3)
    add  x4, x4, x2
    li   x5, 3
    amoadd.d x6, x5, (x4)
    addi x12, x4, 8
    addi x7, x2, 5
    amoadd.w x8, x7, (x12)
    addi x12, x4, 16
    amoadd.d x9, x6, (x12)
    ld   x10, 0(x4)
    sd   x10, 0(x1)
    lw   x10, 8(x4)
    sd   x10, 8(x1)
    li   x11, 2
    fcvt.d.l f1, x11
    addi x12, x4, 24
    famoadd.d f2, f1, (x12)
    ld   x13, 24(x4)
    sd   x13, 16(x1)
    fcvt.s.l f3, x11
    addi x12, x4, 32
    famoadd.s f4, f3, (x12)
    lw   x13, 32(x4)
    sd   x13, 24(x1)
    li   x14, 4294967280
    add  x14, x14, x2
    addi x12, x4, 40
    amomin.w x15, x14, (x12)
    sd   x15, 32(x1)
    ret
"""


def test_int_and_float_amo_steps(monkeypatch):
    lanes = 5

    def scenario(run: _Run) -> None:
        runtime = run.runtime
        blocks = runtime.alloc(64 * lanes)
        seed = np.zeros(8 * lanes, dtype=np.int64)
        seed[0::8] = np.arange(lanes) - 2
        seed[1::8] = 0x7FFFFFF0                      # amoadd.w wraps
        seed[5::8] = 100         # amomin.w: x2 + 0xFFFFFFF0 is x2 - 16
        runtime.device.physical.store_array(blocks, seed)
        out = runtime.alloc(64 * lanes)
        kid = runtime.register_kernel(AMO_KERNEL)
        for _ in range(3):
            run.launch(kid, out, out + 64 * lanes, args=pack_args(blocks),
                       stride=64)
            run.read(out, 64 * lanes)
            run.read(blocks, 64 * lanes)

    run = _differential(scenario, monkeypatch, min_hits=0)
    assert run.counters()[0] == 0
    assert _families(run.platform) == []
    last = np.frombuffer(run.bytes[-1], dtype=np.int64).reshape(lanes, 8)
    assert last[:, 0].tolist() == (np.arange(lanes) - 2 + 9).tolist()
    assert last[:, 5].tolist() == [-16 + (1 << 32), 48, 100, 100, 100]
    assert np.frombuffer(run.bytes[-1], dtype=np.float64).reshape(
        lanes, 8)[:, 3].tolist() == [6.0] * lanes


#: Forms the taint tracer does not follow: each makes its lane uncached.
#: Every kernel reads the data word through the argument block.
UNCACHED_KERNELS = {
    "fp_alu": """
.body
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    fcvt.d.l f1, x5
    fadd.d f2, f1, f1
    fmv.x.d x6, f2
    sd   x6, 0(x1)
    ret
""",
    "fld_fsd": """
.body
    ld   x4, 0(x3)
    fld  f1, 0(x4)
    fsd  f1, 0(x1)
    ret
""",
    "vector_alu": """
.body
    ld   x4, 0(x3)
    li   x5, 8
    vsetvli x0, x5, e8
    vle8.v v1, (x4)
    vadd.vv v2, v1, v1
    vse8.v v2, (x1)
    ret
""",
    "andi_on_a_load": MASK_KERNEL,
    "loaded_vsetvli_avl": """
.body
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    andi x5, x5, 7
    addi x5, x5, 1
    vsetvli x6, x5, e8
    vle8.v v1, (x4)
    vse8.v v1, (x1)
    ret
""",
}


@pytest.mark.parametrize("form", sorted(UNCACHED_KERNELS))
def test_untracked_forms_walk_every_launch(form):
    # 0 point hits over 3 launches, and after each rewrite of the data
    # word the bytes equal an interpreter run's
    runs = {}
    for backend in ("batched", "interpreter"):
        run = _Run(backend)
        runtime = run.runtime
        data = runtime.alloc_array(np.zeros(2, dtype=np.int64))
        out = runtime.alloc(32)
        kid = runtime.register_kernel(UNCACHED_KERNELS[form])
        for word in (0x0102030405060708, 0x1112131415161703, 0x0A0B0C0D):
            runtime.device.physical.store_array(
                data, np.array([word, -word], dtype=np.int64))
            run.launch(kid, out, out + 32, args=pack_args(data))
            run.read(out, 16)
        runs[backend] = run
    batched = runs["batched"]
    assert batched.counters() == (0, 3)
    assert _families(batched.platform) == []
    assert batched.bytes == runs["interpreter"].bytes
    assert len(set(batched.bytes)) == 3


# ---------------------------------------------------------------------------
# refresh, full families, faults, compile bookkeeping
# ---------------------------------------------------------------------------


def test_refresh_replays_recharge_like_the_reference(monkeypatch):
    # 80 replays of one path cross family.replays % 32 == 0 three times
    # (launches 1, 33 and 65).  Only a refresh charges the caches; launch
    # 33 re-reads the word launch 1 pulled in, the other two read cold
    # ones, so the refreshes record different latencies — identically on
    # both replays
    def scenario(run: _Run) -> None:
        runtime = run.runtime
        words = runtime.alloc_array(np.arange(4096, dtype=np.int64))
        out = runtime.alloc(32)
        kid = runtime.register_kernel("""
.body
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    addi x5, x5, 1
    sd   x5, 0(x1)
    ret
""")
        lats = []
        for i in range(81):
            word = ((1 if i == 33 else i) * 67) % 4096
            run.launch(kid, out, out + 32, args=pack_args(words + 8 * word))
            run.read(out, 8)
            if run.platform.device.backend.name != "interpreter":
                lats.append(run.lat())
        run.timing.append(lats)

    run = _differential(scenario, monkeypatch, min_hits=80)
    family, = _families(run.platform)
    assert family.replays == 80 and family.compiles == 1
    recorded = [tuple(snapshot[0][0]) for snapshot in run.timing[-1]]
    assert len(set(recorded)) > 1, "no refresh ever re-recorded latencies"


#: The trip count comes from memory: every count is its own control path.
LOOP_KERNEL = """
.body
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    li   x6, 0
loop:
    beqz x5, done
    addi x5, x5, -1
    addi x6, x6, 1
    j    loop
done:
    sd   x6, 0(x1)
    ret
"""


def test_full_family_replays_established_paths_and_walks_new_ones(
        monkeypatch):
    counts = list(range(MAX_POINT_PATHS + 4))
    rounds = 3

    def scenario(run: _Run) -> None:
        runtime = run.runtime
        words = runtime.alloc_array(np.array(counts, dtype=np.int64))
        out = runtime.alloc(32)
        kid = runtime.register_kernel(LOOP_KERNEL)
        for _ in range(rounds):
            for i in counts:
                run.launch(kid, out, out + 32, args=pack_args(words + 8 * i))
                run.read(out, 8)

    run = _differential(scenario, monkeypatch)
    family, = _families(run.platform)
    assert family.leaves == MAX_POINT_PATHS
    # round 1 walks everything; afterwards the 16 established paths hit
    # and the 4 that never fitted walk again every time
    assert run.counters() == ((rounds - 1) * MAX_POINT_PATHS,
                              len(counts) + (rounds - 1) * 4)
    # each of the 16 leaf changes was followed by a replay attempt, which
    # compiled once; the 44 launches on the full family compiled nothing
    assert family.compiles == MAX_POINT_PATHS
    assert [raw[0] for raw in run.bytes] == counts * rounds


def test_recompiles_exactly_once_per_leaf_change(monkeypatch):
    compiles = []

    def scenario(run: _Run) -> None:
        runtime = run.runtime
        words = runtime.alloc_array(np.array([0, 1, 2], dtype=np.int64))
        out = runtime.alloc(32)
        kid = runtime.register_kernel(LOOP_KERNEL)
        for i in (0, 0, 0, 1, 1, 0, 1, 2, 2, 0, 1, 2):
            run.launch(kid, out, out + 32, args=pack_args(words + 8 * i))
            run.read(out, 8)
            if run.platform.device.backend.name != "interpreter":
                compiles.append(_families(run.platform)[0].compiles)

    run = _differential(scenario, monkeypatch)
    family, = _families(run.platform)
    #                    0  0  0  1  1  0  1  2  2  0  1  2
    assert compiles[:12] == [0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
    assert family.leaves == 3 and family.compiles == 3
    assert family.replay.__code__.co_filename.startswith(
        f"<point-family:{to_unsigned64(family.code_hash):x}:3:")


def test_a_recompile_takes_the_superseded_text_out_of_linecache():
    # two platforms grow the same family through the same texts: a text
    # leaves linecache when the last family showing it recompiles
    def run():
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        words = runtime.alloc_array(np.array([0, 1, 2], dtype=np.int64))
        out = runtime.alloc(32)
        kid = runtime.register_kernel(LOOP_KERNEL)

        def launch(i):
            for _ in range(2):           # a walk records, a replay compiles
                runtime.launch_kernel(kid, out, out + 32,
                                      args=pack_args(words + 8 * i))
            family, = _families(platform)
            assert "".join(linecache.getlines(family.filename)).startswith(
                "def replay(")
            return family.filename
        return launch

    first, second = run(), run()
    one = first(0)
    assert second(0) == one              # one text, shown by both
    two = first(1)
    assert two != one and one in linecache.cache
    assert second(1) == two
    assert one not in linecache.cache
    first(2)
    assert two in linecache.cache        # the second platform still shows it


def test_unmapped_page_mid_replay_is_a_clean_miss():
    # the replay stores, then loads through a pointer that is not mapped:
    # nothing may be committed, counted or charged before the miss
    platform = make_platform(backend="batched")
    runtime = platform.runtime
    block = runtime.alloc_array(np.array([11, 22], dtype=np.int64))
    args_good = runtime.alloc_array(np.array([block], dtype=np.int64))
    args_bad = runtime.alloc_array(np.array([1 << 45], dtype=np.int64))
    out = runtime.alloc(64)
    kid = runtime.register_kernel("""
.body
    sd   x2, 8(x1)
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    sd   x5, 0(x1)
    ret
""")
    for _ in range(2):
        runtime.launch_kernel(kid, out, out + 32, args=pack_args(block))
    family, = _families(platform)
    unit = platform.device.units[0]
    asid = runtime.asid
    period = platform.device.config.ndp.clock.period_ns

    traffic = [0, 0, 0]
    done, entry = point._replay_lane(unit, family, out + 32, 5, args_good,
                                     0.0, asid, period, traffic)
    assert runtime.read_array(out + 32, np.int64, 2).tolist() == [11, 5]

    before = (runtime.device.physical.read_bytes(out, 64),
              platform.stats.snapshot(), family.replays, entry.replays,
              list(traffic))
    with pytest.raises(point._PathMismatch):
        point._replay_lane(unit, family, out, 9, args_bad, 0.0, asid, period,
                           traffic)
    assert before == (runtime.device.physical.read_bytes(out, 64),
                      platform.stats.snapshot(), family.replays,
                      entry.replays, traffic)


#: A load feeding an affine store, and a code constant stored as a
#: literal (bound by reference, never spelled in the generated text).
LITERAL_KERNEL = """
.body
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    li   x6, 77
    sd   x6, 8(x1)
    addi x5, x5, 1
    sd   x5, 0(x1)
    ret
"""


def test_generated_code_is_findable():
    # every family's code object has a file name of its own, its text is
    # in linecache under that name, and a traceback shows the line
    platform = make_platform(backend="batched")
    runtime = platform.runtime
    out = runtime.alloc(32)
    words = runtime.alloc_array(np.array([0, 1], dtype=np.int64))
    for source in (LITERAL_KERNEL, LOOP_KERNEL):
        kid = runtime.register_kernel(source)
        for _ in range(2):
            runtime.launch_kernel(kid, out, out + 32, args=pack_args(words))
    first, second = _families(platform)
    names = [f.replay.__code__.co_filename for f in (first, second)]
    assert len(set(names)) == 2
    for family, name in zip((first, second), names):
        assert name == family.filename
        assert "".join(linecache.getlines(name)).startswith(
            "def replay(memory, x1, x2, x3, refresh):")

    def broken_load(vaddr, size):
        raise RuntimeError("boom")

    # nothing mapped: the inline read leaves the first load to ``load``
    memory = types.SimpleNamespace(load=broken_load, page_map={}, pages={},
                                   page_limit=0, spad_lo=0, spad_hi=0)
    with pytest.raises(RuntimeError) as caught:
        first.replay(memory, 0, 0, 0, False)
    text = "".join(traceback.format_exception(caught.value))
    assert names[0] in text and "v0 = u_q(load(a1, 8))[0]" in text
    # constants travel by reference: no bytes literal in the text
    first_text = "".join(linecache.getlines(names[0]))
    assert "b'" not in first_text and 'b"' not in first_text
