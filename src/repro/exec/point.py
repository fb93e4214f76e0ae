"""Point-launch engine: taint-traced walk + verified symbolic replay.

Tiny launches (n <= the device's lane width, one µthread per unit) are
the M2NDP serving case the paper optimizes for — millions of KVS GETs,
each a single bucket-chain walk — and exactly where the bulk engines
fall off a cliff: per-launch numpy setup (mask stacks, shadow arrays,
fresh register files) costs orders of magnitude more than the handful of
instructions the kernel runs.  This module executes such launches as a
plain synchronous per-lane walk (reusing the scalar
:func:`repro.isa.executor.execute`, committing memory immediately like
the interpreter) while *taint-tracing* every value it computes:

* plain ``int``  — a value reproducible from the kernel code alone;
* ``('lin', const, bases)`` — an affine expression over the launch bases
  ``x1`` (mapped address), ``x2`` (offset), ``x3`` (argument block) and
  earlier load results ``('ld', k)``;
* ``('mix', ks)`` — reproducible given the exact bytes of loads ``ks``
  (promoted to *verified* loads when consumed);
* ``None`` — unreproducible; the lane's trace is abandoned (the walk
  still runs to completion, it just isn't cached).

The recorded path — memory events with symbolic address/value specs,
plus **relational branch guards** ``('br', mnem, a, b, taken)`` — is
merged into a per-structural-key **decision trie** in the cross-launch
trace cache (see :func:`repro.exec.trace_cache.point_key` and
:class:`~repro.exec.trace_cache.PointTrieNode`): paths sharing a prefix
of guard outcomes share trie nodes, so a replay resolves each shared
step exactly once and each guard's *live* outcome selects the subtree —
one linear pass per lane, no per-path retry loop.  Replay runs in two
phases.  Phase A is **compiled**: :func:`compile_family` walks the trie
once and emits one straight-line Python function per family — an access
is a literal line, a guard a nested ``if`` whose unrecorded outcome
raises, verified bytes are compared against constants bound by
reference, a read behind the path's own stores is forwarded from them —
that resolves every spec against the **live** launch (its
``x1``/``x2``/``x3``, its argument block, current memory contents) and
mutates nothing.  Any change to a leaf drops the function
(``PointFamily.insert``) and the next replay compiles again;
``print(family.source)`` shows the text.  Phase B commits the stores
and AMOs and charges timing.  Reaching a guard outcome with no recorded
subtree means the live launch takes a path never walked before — the
replay aborts cleanly and a fresh walk records it into the trie; a
verified-byte mismatch means the recorded data went stale — the family
is invalidated and retraced (:class:`~repro.exec.trace_cache.StaleTrace`).
Either way results are byte-identical to the interpreter by construction.

Because guards are relational (``bne x10, x5`` replays as "are the live
node-key bytes equal to the live argument-key bytes?"), one cached GET
path serves *every* key whose walk matches/mismatches at the same chain
positions — the value-generalized hit the serving tier depends on.

Timing: the walk accumulates instruction cycles between memory events
and charges each event through the unit's live ``timed_accesses`` —
matching the interpreter's event-driven schedule exactly for solo lanes
(per-instruction issue servers never stall a single thread) — and
records each event's observed latency into the path entry.  Replays
apply the recorded deltas instead of re-walking the L1/L2/DRAM servers
(the dominant per-hit cost), re-charging live and re-recording every
``_REFRESH_PERIOD``-th replay so hit latencies track the warm memory
system; traffic counters (``ndp.global_traffic_bytes`` etc.) are
tallied exactly on every replay.  Cross-launch issue pressure is still
applied as one scalar ``SubCore.service_batch`` charge per lane, on the
lane's row of the device's issue bank.

The engine is selected from the launch shape alone (single body section,
no wider than the device — see ``BatchedBackend.register_execution``).
"""

from __future__ import annotations

import linecache
import struct
import zlib

from repro.isa.executor import (
    _BRANCHES,
    _V_FP_COMPARES,
    _V_FP_SCALAR,
    _V_INT_COMPARES,
    _V_INT_SCALAR,
    FP_LOADS,
    LOAD_SIGNED,
    MemAccess,
    execute,
)
from repro.isa.encoding import OpClass
from repro.isa.registers import (
    UThreadRegisters,
    to_signed64,
    to_unsigned64,
)
from repro.errors import TranslationFault
from repro.mem.scratchpad import _apply_amo
from repro.ndp.generator import SPAWN_LATENCY_NS
from repro.ndp.subcore import FU_COLUMN, ISSUE_COLUMNS
from repro.exec.simt import LaunchTail
from repro.exec.trace_cache import PointPathEntry, StaleTrace, point_key

_MASK64 = (1 << 64) - 1
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

#: Sentinels for reproducible-constant float / vector taints.
_FCONST = "fc"
_VCONST = "vc"

_AMO_SIGNED = True  # int AMO olds are packed signed (device._AMO_INT)

#: Every Nth successful replay of a path re-charges its memory events
#: through the live L1/L2/DRAM servers and re-records the per-step
#: latencies; the replays in between apply the recorded deltas, so hit
#: timing tracks the warm memory system at 1/N of its cost.
_REFRESH_PERIOD = 32


class _PathMismatch(Exception):
    """The live launch takes a different branch path than the recording."""


# ---------------------------------------------------------------------------
# affine expression algebra
# ---------------------------------------------------------------------------
#
# ('lin', const, bases) with bases a tuple of (token, coef); tokens are
# 'x1' / 'x2' / 'x3' (live launch registers) or ('ld', k) (load event k,
# resolved from its replayed bytes).  A plain int is the degenerate lin.


def _is_lin(t) -> bool:
    return isinstance(t, int) or (isinstance(t, tuple) and t[0] == "lin")


def _lin_parts(t):
    if isinstance(t, int):
        return t, {}
    return t[1], dict(t[2])


def _mk_lin(const: int, bases: dict):
    bases = {tok: c for tok, c in bases.items() if c}
    if not bases:
        return const
    return ("lin", const, tuple(sorted(bases.items(), key=repr)))


def _lin_add(a, b, sign: int = 1):
    ca, ba = _lin_parts(a)
    cb, bb = _lin_parts(b)
    for tok, coef in bb.items():
        ba[tok] = ba.get(tok, 0) + sign * coef
    return _mk_lin(ca + sign * cb, ba)


def _lin_scale(a, factor: int):
    const, bases = _lin_parts(a)
    return _mk_lin(const * factor,
                   {tok: c * factor for tok, c in bases.items()})


def _lin_ld_only(t):
    """The load set of a lin over load bases only; None if x-based."""
    if isinstance(t, int):
        return frozenset()
    for tok, _ in t[2]:
        if not isinstance(tok, tuple):
            return None
    return frozenset(tok[1] for tok, _ in t[2])


# ---------------------------------------------------------------------------
# recording memory proxy
# ---------------------------------------------------------------------------


class _RecordingMemory:
    """Applies accesses to the live unit memory while capturing bytes."""

    __slots__ = ("real", "events")

    def __init__(self, real) -> None:
        self.real = real
        self.events: list[tuple] = []

    def load(self, vaddr: int, size: int) -> bytes:
        raw = self.real.load(vaddr, size)
        self.events.append(("ld", vaddr, size, raw))
        return raw

    def store(self, vaddr: int, data) -> None:
        self.real.store(vaddr, data)
        self.events.append(("st", vaddr, len(data), bytes(data)))

    def amo(self, op: str, vaddr: int, operand, size: int, is_float: bool):
        old = self.real.amo(op, vaddr, operand, size, is_float)
        self.events.append(("amo", vaddr, size, old, op, operand, is_float))
        return old


# ---------------------------------------------------------------------------
# taint tracking
# ---------------------------------------------------------------------------


class _Taint:
    """Per-lane symbolic state mirroring the architectural registers."""

    __slots__ = ("x", "f", "v", "loads", "steps", "cycles", "ok")

    def __init__(self) -> None:
        self.x = [0] * 32
        self.x[1] = _mk_lin(0, {"x1": 1})
        self.x[2] = _mk_lin(0, {"x2": 1})
        self.x[3] = _mk_lin(0, {"x3": 1})
        self.f = [_FCONST] * 32
        self.v = [_VCONST] * 32
        #: per load event: [size, signed, bytes, verify]
        self.loads: list[list] = []
        self.steps: list[tuple] = []
        self.cycles = 0
        self.ok = True

    # -- taint source readers (promote-on-consume helpers) --------------

    def _x_mix(self, idx: int):
        """Load set making x[idx] reproducible; None if impossible."""
        t = self.x[idx]
        if t is None:
            return None
        if _is_lin(t):
            return _lin_ld_only(t)
        return t[1]                      # ('mix', ks)

    def _f_mix(self, idx: int):
        t = self.f[idx]
        if t is _FCONST:
            return frozenset()
        return t                         # frozenset | None

    def _v_mix(self, idx: int):
        t = self.v[idx]
        if t is _VCONST:
            return frozenset()
        if isinstance(t, tuple):         # ('vld', k)
            return frozenset((t[1],))
        return t                         # frozenset | None

    def promote(self, ks) -> None:
        for k in ks:
            self.loads[k][3] = True

    # -- consumption specs ----------------------------------------------

    def value_spec(self, taint, raw: bytes):
        """Spec reproducing a store's bytes, or None if impossible."""
        if taint is None:
            return None
        if isinstance(taint, int) or taint is _FCONST or taint is _VCONST:
            return ("lit", raw)
        if _is_lin(taint):
            ks = _lin_ld_only(taint)
            if ks is None:
                return ("expr", taint, len(raw))
            # ld-only lin still resolves live — keeps generalization
            return ("expr", taint, len(raw))
        ks = taint[1] if not isinstance(taint, frozenset) else taint
        if ks is None:
            return None
        self.promote(ks)
        return ("lit", raw)

    def addr_spec(self, taint, live_addr: int):
        if taint is None:
            return None
        if isinstance(taint, int):
            return live_addr
        if _is_lin(taint):
            return taint
        ks = taint[1] if isinstance(taint, tuple) else taint
        if ks is None:
            return None
        self.promote(ks)
        return live_addr

    def guard_spec(self, idx: int, live_value: int):
        """Operand spec for a branch guard, or _FAIL sentinel (None)."""
        t = self.x[idx]
        if t is None:
            return None
        if isinstance(t, int):
            return ("lit", live_value)
        if _is_lin(t):
            return ("expr", t)
        ks = t[1]
        self.promote(ks)
        return ("lit", live_value)


def _mix_result(sets):
    """Union load sets; None if any input is unreproducible."""
    out = set()
    for s in sets:
        if s is None:
            return None
        out |= s
    return frozenset(out)


# ---------------------------------------------------------------------------
# the per-lane walk (miss path)
# ---------------------------------------------------------------------------


class _LaneWalk:
    """Execute one lane synchronously, recording a cacheable path."""

    def __init__(self, device, unit, execution, mapped: int, offset: int,
                 cache_enabled: bool) -> None:
        instance = execution.instance
        self.device = device
        self.unit = unit
        self.asid = instance.asid
        self.period = device.config.ndp.clock.period_ns
        self.program = instance.kernel.program.bodies[0]
        self.regs = UThreadRegisters()
        self.regs.write_x(1, mapped)
        self.regs.write_x(2, offset)
        self.regs.write_x(3, execution.args_vaddr)
        self.mem = _RecordingMemory(unit.memory_for(instance.asid))
        self.taint = _Taint() if cache_enabled else None
        self.ops = [0] * ISSUE_COLUMNS      # instruction mix of the lane
        self.lat: list[float] = []

    def run(self, t0: float) -> tuple[float, "PointPathEntry | None"]:
        """Walk the body; returns (completion_ns, cacheable entry)."""
        instructions = self.program.instructions
        count = len(instructions)
        regs, mem, taint = self.regs, self.mem, self.taint
        period = self.period
        t = t0
        cyc = 0
        pc = 0
        while pc < count:
            inst = instructions[pc]
            cyc += inst.latency_cycles
            self.ops[0] += 1
            self.ops[FU_COLUMN[inst.unit]] += 1
            mem.events.clear()
            result = execute(inst, regs, mem)
            if taint is not None and taint.ok:
                if not self._record(inst, result, cyc):
                    taint.ok = False
            if result.accesses:
                t += cyc * period
                cyc = 0
                issue = t
                t = self.unit.timed_accesses(result.accesses, t, self.asid)
                if taint is not None and taint.ok:
                    self.lat.append(t - issue)
            if result.done:
                break
            pc = result.jump_to if result.jump_to is not None else pc + 1
        t += cyc * period
        entry = None
        if taint is not None and taint.ok:
            steps = self._freeze_steps()
            mem_steps = sum(1 for s in steps if s[0] == "mem")
            if mem_steps == len(self.lat):
                entry = PointPathEntry(
                    translation_version=self.device.translation_version,
                    steps=steps,
                    tail_cycles=cyc,
                    ops=self.ops,
                    exemplar=(0, 0, b""),    # filled by the caller
                    lat=self.lat,
                    lat_sum=sum(self.lat),
                )
        return t, entry

    # -- recording ------------------------------------------------------

    def _freeze_steps(self) -> list:
        """Attach verify bytes to load records once promotion settled."""
        taint = self.taint
        frozen = []
        for step in taint.steps:
            if step[0] != "mem":
                frozen.append(step)
                continue
            accesses = []
            for access in step[2]:
                if access[0] == "ld":
                    _, addr, size, k, signed = access
                    info = taint.loads[k]
                    verify = info[2] if info[3] else None
                    accesses.append(("ld", addr, size, k, signed, verify))
                elif access[0] == "amo":
                    _, addr, size, k, op, is_float, op_spec = access
                    info = taint.loads[k]
                    verify = info[2] if info[3] else None
                    accesses.append(("amo", addr, size, k, op, is_float,
                                     op_spec, verify))
                else:
                    accesses.append(access)
            frozen.append(("mem", step[1], tuple(accesses)))
        return frozen

    def _record(self, inst, result, pre_cycles: int) -> bool:
        """Update taint for one executed instruction; False = uncacheable."""
        op = inst.op_class
        handler = _RECORDERS.get(op)
        if handler is None:
            return False
        return handler(self, inst, result, pre_cycles)


# -- per-opclass taint recorders (module functions for dispatch speed) ---


def _set_x(taint, rd, value):
    if rd:
        taint.x[rd] = value


def _rec_alu(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    regs = walk.regs
    m = inst.mnemonic
    x = taint.x
    if m == "add" or m == "sub":
        a, b = x[inst.rs1], x[inst.rs2]
        if _is_lin(a) and _is_lin(b):
            _set_x(taint, inst.rd, _lin_add(a, b, -1 if m == "sub" else 1))
            return True
        return _rec_nl_x(taint, regs, inst.rd,
                         (taint._x_mix(inst.rs1), taint._x_mix(inst.rs2)))
    if m == "addi":
        a = x[inst.rs1]
        if _is_lin(a):
            _set_x(taint, inst.rd, _lin_add(a, inst.imm))
            return True
        return _rec_nl_x(taint, regs, inst.rd, (taint._x_mix(inst.rs1),))
    if m == "slli":
        a = x[inst.rs1]
        if _is_lin(a):
            _set_x(taint, inst.rd, _lin_scale(a, 1 << (inst.imm & 63)))
            return True
        return _rec_nl_x(taint, regs, inst.rd, (taint._x_mix(inst.rs1),))
    if m == "mv":
        _set_x(taint, inst.rd, x[inst.rs1])
        return True
    if m == "neg":
        a = x[inst.rs1]
        if _is_lin(a):
            _set_x(taint, inst.rd, _lin_scale(a, -1))
            return True
        return _rec_nl_x(taint, regs, inst.rd, (taint._x_mix(inst.rs1),))
    if m in ("li", "lui"):
        _set_x(taint, inst.rd, int(regs.x[inst.rd]))
        return True
    # remaining scalar ALU forms: classify sources by bank
    x_dest = True
    srcs = []
    if m in ("and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
             "mul", "mulhu", "div", "divu", "rem", "remu", "addw", "mulw"):
        srcs = [taint._x_mix(inst.rs1), taint._x_mix(inst.rs2)]
    elif m in ("andi", "ori", "xori", "srli", "srai", "slti", "sltiu",
               "seqz", "snez"):
        srcs = [taint._x_mix(inst.rs1)]
    elif m in ("flt.d", "fle.d", "feq.d"):
        srcs = [taint._f_mix(inst.rs1), taint._f_mix(inst.rs2)]
    elif m in ("fmv.x.d", "fcvt.l.d"):
        srcs = [taint._f_mix(inst.rs1)]
    elif m in ("fmv.d.x", "fcvt.d.l", "fcvt.s.l"):
        x_dest = False
        srcs = [taint._x_mix(inst.rs1)]
    elif m in ("fmv.d", "fsqrt.d"):
        x_dest = False
        srcs = [taint._f_mix(inst.rs1)]
    elif m == "fmadd.d":
        x_dest = False
        srcs = [taint._f_mix(inst.rs1), taint._f_mix(inst.rs2),
                taint._f_mix(inst.rs3)]
    else:
        # FP binops (fadd.d etc.) write f[rd] from f sources
        x_dest = False
        srcs = [taint._f_mix(inst.rs1), taint._f_mix(inst.rs2)]
    if x_dest:
        return _rec_nl_x(taint, regs, inst.rd, srcs)
    ks = _mix_result(srcs)
    taint.f[inst.rd] = _FCONST if ks == frozenset() else ks
    return True


def _rec_nl_x(taint, regs, rd, srcs) -> bool:
    ks = _mix_result(srcs)
    if ks is None:
        _set_x(taint, rd, None)
        return True                      # lane stays cacheable; value dead-ends
    if ks:
        _set_x(taint, rd, ("mix", ks))
    else:
        _set_x(taint, rd, int(regs.x[rd]))
    return True


def _rec_branch(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    regs = walk.regs
    m = inst.mnemonic
    if m == "j":
        return True
    taken = result.jump_to is not None
    if m in _BRANCHES:
        ta, tb = taint.x[inst.rs1], taint.x[inst.rs2]
        if isinstance(ta, int) and isinstance(tb, int):
            return True                  # outcome is code-determined
        a = taint.guard_spec(inst.rs1, int(regs.x[inst.rs1]))
        b = taint.guard_spec(inst.rs2, int(regs.x[inst.rs2]))
        if a is None or b is None:
            return False
        # fully-promoted operands need no guard: verified loads pin them
        if a[0] == "lit" and b[0] == "lit":
            return True
        taint.steps.append(("br", m, a, b, taken))
        return True
    if isinstance(taint.x[inst.rs1], int):
        return True
    a = taint.guard_spec(inst.rs1, int(regs.x[inst.rs1]))
    if a is None:
        return False
    if a[0] == "lit":
        return True
    taint.steps.append(("br", m, a, None, taken))
    return True


def _rec_load(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    event = walk.mem.events[0]
    _, vaddr, size, raw = event
    addr = taint.addr_spec(_lin_add(taint.x[inst.rs1], inst.imm)
                           if _is_lin(taint.x[inst.rs1])
                           else taint.x[inst.rs1], vaddr)
    if addr is None:
        return False
    m = inst.mnemonic
    k = len(taint.loads)
    signed = m in LOAD_SIGNED
    taint.loads.append([size, signed, raw, False])
    if m in FP_LOADS:
        taint.f[inst.rd] = frozenset((k,))
    else:
        _set_x(taint, inst.rd, _mk_lin(0, {("ld", k): 1}))
    taint.steps.append(("mem", pre, (("ld", addr, size, k, signed),)))
    return True


def _rec_store(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    _, vaddr, size, raw = walk.mem.events[0]
    addr = taint.addr_spec(_lin_add(taint.x[inst.rs1], inst.imm)
                           if _is_lin(taint.x[inst.rs1])
                           else taint.x[inst.rs1], vaddr)
    if addr is None:
        return False
    m = inst.mnemonic
    src_taint = (taint.f[inst.rs2] if m in ("fsw", "fsd")
                 else taint.x[inst.rs2])
    value = taint.value_spec(src_taint, raw)
    if value is None:
        return False
    taint.steps.append(("mem", pre, (("st", addr, size, value),)))
    return True


def _rec_amo(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    _, vaddr, size, old, op, operand, is_float = walk.mem.events[0]
    addr = taint.addr_spec(_lin_add(taint.x[inst.rs1], inst.imm)
                           if _is_lin(taint.x[inst.rs1])
                           else taint.x[inst.rs1], vaddr)
    if addr is None:
        return False
    if is_float:
        ot = taint.f[inst.rs2]
        if ot is _FCONST:
            op_spec = ("lit", operand)
        elif ot is None:
            return False
        else:
            taint.promote(ot)
            op_spec = ("lit", operand)
    else:
        ot = taint.x[inst.rs2]
        if isinstance(ot, int):
            op_spec = ("lit", operand)
        elif ot is None:
            return False
        elif _is_lin(ot):
            op_spec = ("expr", ot)
        else:
            taint.promote(ot[1])
            op_spec = ("lit", operand)
    k = len(taint.loads)
    taint.loads.append([size, _AMO_SIGNED, _pack_amo_old(old, size, is_float),
                        False])
    if is_float:
        taint.f[inst.rd] = frozenset((k,))
    else:
        _set_x(taint, inst.rd, _mk_lin(0, {("ld", k): 1}))
    taint.steps.append(
        ("mem", pre, (("amo", addr, size, k, op, is_float, op_spec),)))
    return True


def _pack_amo_old(old, size: int, is_float: bool) -> bytes:
    """Recorded AMO old value as raw memory bytes (for verified replay)."""
    if is_float:
        return _F32.pack(old) if size == 4 else _F64.pack(old)
    return (old & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


def _rec_vset(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    t = taint.x[inst.rs1]
    if not isinstance(t, int):
        ks = taint._x_mix(inst.rs1)
        if ks is None:
            return False
        taint.promote(ks)
    _set_x(taint, inst.rd, int(walk.regs.x[inst.rd]))
    return True


def _rec_vload(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    if not walk.mem.events:              # vl == 0
        taint.v[inst.rd] = _VCONST
        return True
    _, vaddr, size, raw = walk.mem.events[0]
    addr = taint.addr_spec(_lin_add(taint.x[inst.rs1], inst.imm)
                           if _is_lin(taint.x[inst.rs1])
                           else taint.x[inst.rs1], vaddr)
    if addr is None:
        return False
    k = len(taint.loads)
    taint.loads.append([size, False, raw, False])
    taint.v[inst.rd] = ("vld", k)
    taint.steps.append(("mem", pre, (("ld", addr, size, k, False),)))
    return True


def _rec_vstore(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    if not walk.mem.events:
        return True
    _, vaddr, size, raw = walk.mem.events[0]
    addr = taint.addr_spec(_lin_add(taint.x[inst.rs1], inst.imm)
                           if _is_lin(taint.x[inst.rs1])
                           else taint.x[inst.rs1], vaddr)
    if addr is None:
        return False
    vt = taint.v[inst.rd]
    if isinstance(vt, tuple) and vt[0] == "vld":
        k = vt[1]
        if taint.loads[k][0] == size and not taint.loads[k][3]:
            # byte passthrough: store the load's live bytes untouched
            taint.steps.append(("mem", pre, (("st", addr, size,
                                              ("pass", k)),)))
            return True
    value = taint.value_spec(vt, raw)
    if value is None:
        return False
    taint.steps.append(("mem", pre, (("st", addr, size, value),)))
    return True


def _rec_indexed(walk: _LaneWalk, inst, result, pre) -> bool:
    """vgather / vscatter / vamo: per-element events off one base."""
    taint = walk.taint
    if inst.rd in (inst.rs1, inst.rs2) and inst.op_class is OpClass.VGATHER:
        return False                     # base/offsets clobbered mid-decode
    base_t = taint.x[inst.rs1]
    if base_t is None:
        return False
    offs = taint._v_mix(inst.rs2)
    if offs is None:
        return False
    taint.promote(offs)
    live_base = to_unsigned64(walk.regs.x[inst.rs1])
    if not _is_lin(base_t):
        taint.promote(base_t[1])
        base_t = live_base
    accesses = []
    ks = set()
    if inst.op_class is OpClass.VGATHER:
        for _, vaddr, size, raw in walk.mem.events:
            addr = _lin_add(base_t, (vaddr - live_base) & _MASK64)
            k = len(taint.loads)
            taint.loads.append([size, False, raw, False])
            ks.add(k)
            accesses.append(("ld", addr, size, k, False))
        taint.v[inst.rd] = frozenset(ks)
    elif inst.op_class is OpClass.VSCATTER:
        vt = taint._v_mix(inst.rd)
        if vt is None:
            return False
        taint.promote(vt)
        for _, vaddr, size, raw in walk.mem.events:
            addr = _lin_add(base_t, (vaddr - live_base) & _MASK64)
            accesses.append(("st", addr, size, ("lit", raw)))
    else:                                # VAMO
        vt = taint._v_mix(inst.rd)
        if vt is None:
            return False
        taint.promote(vt)
        for _, vaddr, size, old, op, operand, is_float in walk.mem.events:
            addr = _lin_add(base_t, (vaddr - live_base) & _MASK64)
            k = len(taint.loads)
            taint.loads.append([size, _AMO_SIGNED,
                                _pack_amo_old(old, size, is_float), False])
            accesses.append(("amo", addr, size, k, op, is_float,
                             ("lit", operand)))
    if accesses:
        taint.steps.append(("mem", pre, tuple(accesses)))
    return True


def _rec_valu(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    m = inst.mnemonic
    if m in ("vmv.v.i", "vid.v"):
        taint.v[inst.rd] = _VCONST
        return True
    srcs = []
    if m in ("vmv.v.x", "vmv.s.x"):
        srcs.append(taint._x_mix(inst.rs1))
    elif m == "vfmv.v.f":
        srcs.append(taint._f_mix(inst.rs1))
    else:
        srcs.append(taint._v_mix(inst.rs1))
    if m in _V_INT_SCALAR or m in _V_INT_COMPARES or m == "vmerge.vxm":
        srcs.append(taint._x_mix(inst.rs2))
    elif m in _V_FP_SCALAR or m in _V_FP_COMPARES or m == "vfmacc.vf":
        srcs.append(taint._f_mix(inst.rs2))
    elif m.endswith(".vv") or m.endswith(".mm"):
        srcs.append(taint._v_mix(inst.rs2))
    if m in ("vmacc.vv", "vfmacc.vf", "vfmacc.vv", "vmv.s.x"):
        srcs.append(taint._v_mix(inst.rd))
    if m in ("vmerge.vxm", "vmerge.vim"):
        srcs.append(taint._v_mix(0))
    ks = _mix_result(srcs)
    if m == "vmv.x.s":
        if ks is None:
            _set_x(taint, inst.rd, None)
        elif ks:
            _set_x(taint, inst.rd, ("mix", ks))
        else:
            _set_x(taint, inst.rd, int(walk.regs.x[inst.rd]))
        return True
    if m == "vfmv.f.s":
        taint.f[inst.rd] = _FCONST if ks == frozenset() else ks
        return True
    taint.v[inst.rd] = _VCONST if ks == frozenset() else ks
    return True


def _rec_vred(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    ks = _mix_result((taint._v_mix(inst.rs1), taint._v_mix(inst.rs2)))
    taint.v[inst.rd] = _VCONST if ks == frozenset() else ks
    return True


def _rec_nop(walk, inst, result, pre) -> bool:
    return True


_RECORDERS = {
    OpClass.ALU: _rec_alu,
    OpClass.BRANCH: _rec_branch,
    OpClass.LOAD: _rec_load,
    OpClass.STORE: _rec_store,
    OpClass.AMO: _rec_amo,
    OpClass.VSET: _rec_vset,
    OpClass.VLOAD: _rec_vload,
    OpClass.VSTORE: _rec_vstore,
    OpClass.VGATHER: _rec_indexed,
    OpClass.VSCATTER: _rec_indexed,
    OpClass.VAMO: _rec_indexed,
    OpClass.VALU_OP: _rec_valu,
    OpClass.VRED: _rec_vred,
    OpClass.FENCE: _rec_nop,
    OpClass.RET: _rec_nop,
}


# ---------------------------------------------------------------------------
# verified replay (hit path): the family's trie, compiled
# ---------------------------------------------------------------------------

_SIGNED = "(({} + 0x8000000000000000) & 0xFFFFFFFFFFFFFFFF) - 0x8000000000000000"
_SIGNED32 = "(({} + 0x80000000) & 0xFFFFFFFF) - 0x80000000"
_UNSIGNED = "({}) & 0xFFFFFFFFFFFFFFFF"

#: guard mnemonic -> (comparison, signed operands); equality reads the
#: same either way and takes the cheaper unsigned form
_GUARD_OPS = {
    "beq": ("==", False), "bne": ("!=", False), "blt": ("<", True),
    "bge": (">=", True), "bltu": ("<", False), "bgeu": (">=", False),
    "beqz": ("==", False), "bnez": ("!=", False), "blez": ("<=", True),
    "bgez": (">=", True), "bltz": ("<", True), "bgtz": (">", True),
}


def _forward(raw: bytes, vaddr: int, base: int, data: bytes) -> bytes:
    """``raw`` (read at ``vaddr``) as a read behind the path's own earlier
    write of ``data`` at ``base`` sees it: store-buffer forwarding."""
    lo, hi = max(base, vaddr), min(base + len(data), vaddr + len(raw))
    if lo >= hi:
        return raw
    return raw[:lo - vaddr] + data[lo - base:hi - base] + raw[hi - vaddr:]


def _amo_bytes(op: str, old_raw: bytes, operand, is_float: bool) -> bytes:
    """The bytes an AMO leaves behind, for later reads on the same path."""
    size = len(old_raw)
    old = ((_F32 if size == 4 else _F64).unpack(old_raw)[0] if is_float
           else int.from_bytes(old_raw, "little", signed=True))
    return _pack_amo_old(_apply_amo(op, old, operand), size, is_float)


class _FamilyCompiler:
    """Emits one family's trie as a straight-line Python function.

    The text holds only the trie's ints and what its mnemonics select
    (addresses, sizes, coefficients, cycle counts, comparison operators);
    verified bytes, store literals, AMO operands and the leaf entries are
    bound by reference through the function's namespace.
    """

    def __init__(self) -> None:
        self.lines = ["def replay(load, x1, x2, x3, spad_lo, spad_hi, refresh):",
                      "    c = []; tl = []; sb = gb = gc = 0"]
        self.namespace = {"StaleTrace": StaleTrace, "MemAccess": MemAccess,
                          "PathMismatch": _PathMismatch, "forward": _forward,
                          "amo_bytes": _amo_bytes}
        self.serial = 0                  # one number per emitted access
        # what is known at this point of the path being emitted
        self.signed: dict[int, bool] = {}    # load k -> its value is signed
        self.values: set[int] = set()        # loads whose int ``v{k}`` exists
        self.writes: list[tuple] = []        # (address, data) names, in order
        self.pre = 0                         # instruction cycles so far

    def bind(self, obj) -> str:
        name = f"K{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def lin(self, spec, depth: int) -> str:
        """Expression for an affine spec; converts the loads it reads."""
        if isinstance(spec, int):
            return str(spec)
        terms = [str(spec[1])] if spec[1] else []
        for tok, coef in spec[2]:
            if isinstance(tok, tuple):
                k = int(tok[1])
                if k not in self.values:
                    self.values.add(k)
                    self.emit(depth, f"v{k} = int.from_bytes(r{k}, 'little', "
                                     f"signed={self.signed[k]})")
                tok = f"v{k}"
            elif tok not in ("x1", "x2", "x3"):
                raise ValueError(f"unknown base token {tok!r}")
            terms.append(tok if coef == 1 else f"{int(coef)} * {tok}")
        return " + ".join(terms)

    def read(self, k: int, signed: bool, addr: str, size: int, verify,
             what: str, depth: int) -> None:
        self.signed[k] = signed
        self.emit(depth, f"r{k} = load({addr}, {size})")
        for base, data in self.writes:
            self.emit(depth, f"r{k} = forward(r{k}, {addr}, {base}, {data})")
        if verify is not None:
            self.emit(depth, f"if r{k} != {self.bind(verify)}: "
                             f"raise StaleTrace('point path {what} went stale')")

    def access(self, access: tuple, depth: int) -> str:
        """One memory access; returns its refresh ``MemAccess`` event."""
        kind, spec, size = access[0], access[1], int(access[2])
        self.serial += 1
        addr, data = f"a{self.serial}", f"d{self.serial}"
        self.emit(depth, f"{addr} = " + (
            str(to_unsigned64(spec)) if isinstance(spec, int)
            else _UNSIGNED.format(self.lin(spec, depth))))
        self.emit(depth, f"if spad_lo <= {addr} < spad_hi: sb += {size}")
        self.emit(depth, f"else: gb += {size}; gc += 1")
        if kind == "ld":
            self.read(int(access[3]), bool(access[4]), addr, size, access[5],
                      "data", depth)
            return f"MemAccess({addr}, {size}, False)"
        if kind == "st":
            value = access[3]
            if value[0] == "lit":
                data = self.bind(value[1])
            elif value[0] == "pass":
                data = f"r{int(value[1])}"
            else:                        # scalar store: at most 8 bytes
                width = int(value[2])
                self.emit(depth, f"{data} = (({self.lin(value[1], depth)}) & "
                                 f"{(1 << (8 * width)) - 1})"
                                 f".to_bytes({width}, 'little')")
            self.emit(depth, f"c.append(('st', {addr}, {data}))")
            self.writes.append((addr, data))
            return f"MemAccess({addr}, {size}, True)"
        _, _, _, k, op, is_float, operand, verify = access
        k, op, is_float = int(k), self.bind(op), bool(is_float)
        self.read(k, _AMO_SIGNED, addr, size, verify, "AMO old", depth)
        if operand[0] == "lit":
            value = self.bind(operand[1])
        else:
            value = f"o{self.serial}"
            wrap = _SIGNED32 if size == 4 else _SIGNED
            self.emit(depth, f"{value} = "
                             + wrap.format(self.lin(operand[1], depth)))
        self.emit(depth, f"c.append(('amo', {addr}, {size}, {op}, {value}, "
                         f"{is_float}))")
        self.emit(depth, f"{data} = amo_bytes({op}, r{k}, {value}, {is_float})")
        self.writes.append((addr, data))
        return f"MemAccess({addr}, {size}, True, True)"

    def operand(self, spec: tuple, signed: bool, depth: int) -> str:
        if spec[0] == "lit":
            return str(to_signed64(spec[1]) if signed
                       else to_unsigned64(spec[1]))
        return "(" + (_SIGNED if signed else _UNSIGNED).format(
            self.lin(spec[1], depth)) + ")"

    def node(self, node, depth: int) -> None:
        """A subtree: flat along one-outcome guards, nested at two-way ones."""
        while True:
            for _, pre, accesses in node.mems:
                events = [self.access(access, depth) for access in accesses]
                self.pre += pre
                self.emit(depth, f"if refresh: tl.append(({int(pre)}, "
                                 f"({', '.join(events)},)))")
            if node.guard is None:
                self.emit(depth, "raise PathMismatch" if node.entry is None
                          else f"return {self.bind(node.entry)}, {self.pre}, "
                               f"c, sb, gb, gc, tl")
                return
            m, a, b = node.guard
            compare, signed = _GUARD_OPS[m]
            test = (f"{self.operand(a, signed, depth)} {compare} "
                    + ("0" if b is None else self.operand(b, signed, depth)))
            taken, fallen = node.children.get(True), node.children.get(False)
            if taken is not None and fallen is not None:
                here = (dict(self.signed), set(self.values),
                        list(self.writes), self.pre)
                self.emit(depth, f"if {test}:")
                self.node(taken, depth + 1)
                self.signed, self.values, self.writes, self.pre = here
                self.emit(depth, "else:")
                self.node(fallen, depth + 1)
                return
            # one recorded outcome: the other is a path never walked
            self.emit(depth, f"if {test}: raise PathMismatch" if taken is None
                      else f"if not ({test}): raise PathMismatch")
            node = taken if taken is not None else fallen


def compile_family(family):
    """Generate, compile and install ``family.replay`` from its trie.

    ``replay(load, x1, x2, x3, spad_lo, spad_hi, refresh)`` is phase A and
    returns the matched leaf's ``(entry, pre_cycles, commits, spad_bytes,
    global_bytes, global_accesses, timeline)``.  The text stays on the
    family under a file name of its own (kernel, leaves, text checksum):
    :mod:`linecache` serves it to tracebacks, and ``pstats``, which keys
    rows by file name, keeps families apart in a profile.
    """
    compiler = _FamilyCompiler()
    compiler.node(family.root, 1)
    source = "\n".join(compiler.lines) + "\n"
    filename = (f"<point-family:{to_unsigned64(family.code_hash):x}:"
                f"{family.leaves}:{zlib.crc32(source.encode()):08x}>")
    exec(compile(source, filename, "exec"), compiler.namespace)
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    family.source = source
    family.compiles += 1
    family.replay = compiler.namespace["replay"]
    return family.replay


def _replay_lane(unit, family, x1: int, x2: int, x3: int, t0: float,
                 asid: int, period: float) -> tuple[float, PointPathEntry]:
    """Replay one lane (live registers ``x1``/``x2``/``x3``) through the
    family's compiled trie.

    Raises :class:`_PathMismatch` when a guard outcome has no recorded
    subtree (a control path never walked before) or the replay touches an
    unmapped page, and :class:`StaleTrace` when verified bytes changed
    (invalidate the family + retrace) — both before anything is committed
    or charged.  On success the stores/AMOs are committed, timing is
    charged, and (completion_ns, matched path entry) returned.
    """
    memory = unit.memory_for(asid)
    # a refresh replay rebuilds MemAccess events and charges them live,
    # re-recording the matched path's latency profile; the replays in
    # between apply the recorded deltas and only tally traffic counters
    refresh = family.replays % _REFRESH_PERIOD == 0
    replay = family.replay or compile_family(family)
    try:
        (entry, pre_total, commits, spad_bytes, glob_bytes, glob_count,
         timeline) = replay(memory.load, x1, x2, x3, unit._spad_base,
                            unit._spad_end, refresh)
    except TranslationFault:
        raise _PathMismatch from None

    # -- phase B: commit + timing (resolve order == commit order) -------
    for commit in commits:
        if commit[0] == "st":
            memory.store(commit[1], commit[2])
        else:
            memory.amo(commit[3], commit[1], commit[4], commit[2], commit[5])
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
        stats = unit.stats
        if spad_bytes:
            stats.add("ndp.spad_traffic_bytes", spad_bytes)
        if glob_count:
            stats.add("ndp.global_traffic_bytes", glob_bytes)
            stats.add("ndp.global_accesses", glob_count)
        t = t0 + pre_total * period + entry.lat_sum
    return t + entry.tail_cycles * period, entry


# ---------------------------------------------------------------------------
# launch orchestration
# ---------------------------------------------------------------------------


def attempt_point(backend, execution, now_ns: float) -> None:
    """Run a point launch through walk/replay; always succeeds.

    The caller has already checked eligibility (single body, no phases,
    n <= number of units) and takes ownership of the execution's
    µthreads afterwards.  Commits are immediate and interpreter-
    equivalent, so there is no fallback: translation faults propagate
    exactly as the interpreter's would.
    """
    device = backend.device
    cache = backend.trace_cache
    stats = device.stats
    instance = execution.instance
    cfg = device.config.ndp
    period = cfg.clock.period_ns
    num_units = execution.num_units
    exec_units = device.units[execution.unit_base:
                              execution.unit_base + num_units]
    asid = instance.asid
    stride = instance.uthread_stride
    n = instance.num_body_uthreads
    tv = device.translation_version

    key = point_key(execution) if cache.enabled else None
    family = cache.lookup_point(key, tv) if cache.enabled else None
    identity = (instance.pool_base, instance.offset_bias, instance.args)

    t0 = max(now_ns, device.sim.now) + SPAWN_LATENCY_NS
    lane_done: list[float] = []
    total_inst = 0
    hits = misses = gen_hits = 0

    for lane in range(n):
        unit = exec_units[lane % num_units]
        x1 = instance.pool_base + lane * stride
        x2 = instance.offset_bias + lane * stride
        done_t = None
        if family is not None:
            try:
                done_t, entry = _replay_lane(unit, family, x1, x2,
                                             execution.args_vaddr, t0, asid,
                                             period)
            except _PathMismatch:
                pass
            except StaleTrace:
                cache.invalidate(key)
                family = None
            else:
                hits += 1
                if identity != entry.exemplar:
                    gen_hits += 1
                lane_ops = entry.ops
        if done_t is None:
            walk = _LaneWalk(device, unit, execution, mapped=x1, offset=x2,
                             cache_enabled=cache.enabled)
            done_t, entry = walk.run(t0)
            lane_ops = walk.ops
            if cache.enabled:
                misses += 1
                if entry is not None:
                    entry.exemplar = identity
                    cache.store_point(key, tv, entry)
                    family = cache.lookup_point(key, tv)
        total_inst += lane_ops[0]
        # bulk issue pressure on the lane's sub-core (no per-inst charges)
        unit.subcores[0].service_batch(t0, lane_ops)
        lane_done.append(done_t)

    stats.add("exec.simt_launches")
    stats.add("exec.point_launches")
    if hits:
        stats.add("exec.trace_cache_hits", hits)
        stats.add("exec.trace_cache_hits_point", hits)
    if gen_hits:
        stats.add("exec.trace_cache_hits_generalized", gen_hits)
    if misses:
        stats.add("exec.trace_cache_misses", misses)

    completion = max(lane_done) if lane_done else t0
    instance.lane_complete_ns = list(lane_done)
    tail = LaunchTail(device, execution, "exec.point", t0, lanes=n,
                      cache_hits=hits, cache_misses=misses,
                      generalized_hits=gen_hits)
    slots = execution.slots_per_unit
    tail.occupy(t0, min((n + num_units - 1) // num_units, slots) / slots)
    tail.schedule(completion, total_inst, n)
