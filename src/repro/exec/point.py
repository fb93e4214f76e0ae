"""Point-launch engine: taint-traced walk + symbolic replay.

Tiny launches (n <= the device's lane width, one µthread per unit) are
the M2NDP serving case the paper optimizes for — millions of KVS GETs,
each a single bucket-chain walk — and exactly where the bulk engines
fall off a cliff: per-launch numpy setup (mask stacks, shadow arrays,
fresh register files) costs orders of magnitude more than the handful of
instructions the kernel runs.  This module executes such launches as a
plain synchronous per-lane walk (stepping through the scalar executor's
:func:`repro.isa.executor.decode`, committing memory immediately like
the interpreter) while *taint-tracing* the integer and vector registers:

* plain ``int``  — a value reproducible from the kernel code alone;
* ``('lin', const, bases)`` — an affine expression over the launch bases
  ``x1`` (mapped address), ``x2`` (offset), ``x3`` (argument block) and
  earlier load results ``('ld', k)``, kept through ``add``/``sub``/
  ``addi``/``slli``/``neg``/``mv``/``li``/``lui``;
* ``None`` — the result of any other integer op: the lane stays
  cacheable until an address, a stored value or a branch reads it;
* a vector register is a constant or the untouched bytes of one vector
  load ``('vld', k)``, which a vector store of the same size passes
  through.

A floating-point op, load or store, a vector-ALU op, a ``vsetvli`` whose
AVL is not a code constant, and every op class without a recorder (AMOs,
gathers/scatters, reductions) make the lane uncacheable: it still runs
to completion, it just walks again on every launch.  No loaded bytes are
verified at replay: a recorded load only feeds affine addresses, stored
values and guards, all re-resolved from the live bytes.

The recorded path — memory events with symbolic address/value specs,
plus **relational branch guards** ``('br', mnem, a, b, taken)`` — is
merged into a per-structural-key **decision trie** in the cross-launch
trace cache (see :func:`repro.exec.trace_cache.point_key` and
:class:`~repro.exec.trace_cache.PointTrieNode`): paths sharing a prefix
of guard outcomes share trie nodes, so a replay resolves each shared
step exactly once and each guard's *live* outcome selects the subtree —
one linear pass per lane, no per-path retry loop.  Replay runs in two
phases.  Phase A is **compiled**: :func:`compile_family` walks the trie
once and emits one straight-line Python function per family that
resolves every spec against the **live** launch (its ``x1``/``x2``/
``x3``, its argument block, current memory contents) and mutates
nothing.  A guard is a nested ``if`` whose unrecorded outcome raises; a
read behind the path's own stores is forwarded from them; a load is
:class:`~repro.ndp.unit.UnitMemory`'s flat path written out inline —
one ``dict.get`` on the page table's map, then a slice of the physical
page (unpacked straight into an int where only the value is used), with
the last page looked up kept for the next load.  A page the scratchpad
window overlaps, an unmapped page, a page-crossing load and the
capacity's last partial page call the unit memory's ``load`` instead, so
a ``TranslationFault`` still ends the replay as a clean miss.  Any change
to a leaf drops the function (``PointFamily.insert``) and the next
replay compiles again, taking the old text out of :mod:`linecache`,
which holds the text under the family's file name.  Phase B commits the
stores and charges timing.  Reaching a guard outcome with no recorded
subtree means the live launch takes a path never walked before — the
replay aborts cleanly and a fresh walk records it into the trie.  A
family is dropped only when the device's translation version changes
or a new path conflicts with its trie.  Either way results are
byte-identical to the interpreter by construction.

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
tallied exactly on every replay and added to the stats once per launch.
Cross-launch issue pressure is still applied as one scalar
``SubCore.service_batch`` charge per lane, on the lane's row of the
device's issue bank.

The deltas are the whole kv gap to the interpreter: charged live on
every replay (``_REFRESH_PERIOD = 1``), m2bench's probe reads
``sim_agreement_vs_ref`` 1.0000 on ``kv_get_serve`` and 0.99992 on
``kv_mixed_serve`` (0.8404 and 0.8621 at 32), but ``kv_get_serve`` serves
0.31x the requests per host second (17 224 -> 5 296 on a 2-core Xeon VM;
``setup_s`` 0.46 -> 1.14 s), outside the benchmark's 25 % bound.

The engine is selected from the launch shape alone (single body section,
no wider than the device — see ``BatchedBackend.register_execution``).
"""

from __future__ import annotations

import struct

from repro.isa.executor import (
    _BRANCHES,
    BRANCH_OPS,
    SIGNED64,
    UNSIGNED64,
    FP_LOADS,
    FP_STORES,
    LOAD_SIGNED,
    MemAccess,
    decode,
    forget_generated,
    run_generated,
)
from repro.isa.encoding import OpClass
from repro.isa.registers import (
    UThreadRegisters,
    to_signed64,
    to_unsigned64,
)
from repro.errors import TranslationFault
from repro.mem.physical import _ZERO, PAGE_SIZE
from repro.ndp.generator import SPAWN_LATENCY_NS
from repro.ndp.subcore import ISSUE_COLUMNS
from repro.ndp.tlb import PAGE_SHIFT
from repro.exec.simt import LaunchTail
from repro.exec.trace_cache import PointPathEntry, point_key

#: Sentinel for a vector register reproducible from the kernel code.
_VCONST = "vc"

#: (size, signed) -> (its name in a compiled replay, the unpacker of a
#: little-endian word of that width)
_UNPACK = {(struct.calcsize(c), c.islower()):
           (f"u_{c}", struct.Struct("<" + c).unpack_from) for c in "bBhHiIqQ"}

#: Every Nth successful replay of a path re-charges its memory events
#: through the live L1/L2/DRAM servers and re-records the per-step
#: latencies; the replays in between apply the recorded deltas, so hit
#: timing tracks the warm memory system at 1/N of its cost.  N = 1 makes
#: the kv probes exact at 0.31x the host rate (module docstring).
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
        return self.real.amo(op, vaddr, operand, size, is_float)


# ---------------------------------------------------------------------------
# taint tracking
# ---------------------------------------------------------------------------


class _Taint:
    """Per-lane symbolic state mirroring the x and v registers."""

    __slots__ = ("x", "v", "loads", "steps", "ok")

    def __init__(self) -> None:
        self.x = [0] * 32
        self.x[1] = _mk_lin(0, {"x1": 1})
        self.x[2] = _mk_lin(0, {"x2": 1})
        self.x[3] = _mk_lin(0, {"x3": 1})
        self.v = [_VCONST] * 32
        #: byte size of each load event so far
        self.loads: list[int] = []
        self.steps: list[tuple] = []
        self.ok = True

    def addr_spec(self, rs1: int, imm: int, live_addr: int):
        """Spec of a memory access's address, or None if unreproducible."""
        t = self.x[rs1]
        if isinstance(t, tuple):
            return _lin_add(t, imm)
        return None if t is None else live_addr

    def load(self, pre: int, addr, size: int, signed: bool) -> int:
        """Record one load event; returns its index ``k``."""
        k = len(self.loads)
        self.loads.append(size)
        self.steps.append(("mem", pre, (("ld", addr, size, k, signed),)))
        return k

    def store(self, pre: int, addr, size: int, value) -> None:
        self.steps.append(("mem", pre, (("st", addr, size, value),)))


def _operand(taint, live: int) -> tuple:
    """A guard operand: the live value of a code constant, else its lin."""
    return ("lit", live) if isinstance(taint, int) else ("expr", taint)


# ---------------------------------------------------------------------------
# the per-lane walk (miss path)
# ---------------------------------------------------------------------------


class _LaneWalk:
    """Execute one lane synchronously, recording a cacheable path."""

    def __init__(self, device, unit, execution, mapped: int,
                 offset: int) -> None:
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
        self.taint = _Taint()
        self.ops = [0] * ISSUE_COLUMNS      # instruction mix of the lane
        self.lat: list[float] = []

    def run(self, t0: float) -> tuple[float, "PointPathEntry | None"]:
        """Walk the body; returns (completion_ns, cacheable entry)."""
        instructions = self.program.instructions
        code = decode(self.program)
        count = len(code)
        regs, mem, taint, ops = self.regs, self.mem, self.taint, self.ops
        period = self.period
        t = t0
        cyc = 0
        pc = 0
        while pc < count:
            run, column, cycles = code[pc]
            cyc += cycles
            ops[0] += 1
            ops[column] += 1
            mem.events.clear()
            result = run(regs, mem)
            if taint.ok:
                inst = instructions[pc]
                handler = _RECORDERS.get(inst.op_class)
                if handler is None or not handler(self, inst, result, cyc):
                    taint.ok = False
            if result.accesses:
                t += cyc * period
                cyc = 0
                issue = t
                t = self.unit.timed_accesses(result.accesses, t, self.asid)
                if taint.ok:
                    self.lat.append(t - issue)
            if result.done:
                break
            pc = result.jump_to if result.jump_to is not None else pc + 1
        t += cyc * period
        entry = None
        if taint.ok:
            steps = taint.steps
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


# -- per-opclass taint recorders (module functions for dispatch speed) ---
#
# Each returns False to make the lane uncacheable.


def _rec_alu(walk: _LaneWalk, inst, result, pre) -> bool:
    m = inst.mnemonic
    if m[0] == "f":                      # every scalar FP mnemonic
        return False
    x = walk.taint.x
    if m in ("li", "lui"):
        value = int(walk.regs.x[inst.rd])
    elif m == "mv":
        value = x[inst.rs1]
    elif x[inst.rs1] is None:
        value = None
    elif m == "add" or m == "sub":
        b = x[inst.rs2]
        value = (None if b is None
                 else _lin_add(x[inst.rs1], b, -1 if m == "sub" else 1))
    elif m == "addi":
        value = _lin_add(x[inst.rs1], inst.imm)
    elif m == "slli":
        value = _lin_scale(x[inst.rs1], 1 << (inst.imm & 63))
    elif m == "neg":
        value = _lin_scale(x[inst.rs1], -1)
    else:
        value = None                     # not affine: a dead end
    if inst.rd:
        x[inst.rd] = value
    return True


def _rec_branch(walk: _LaneWalk, inst, result, pre) -> bool:
    m = inst.mnemonic
    if m == "j":
        return True
    x, live = walk.taint.x, walk.regs.x
    two = m in _BRANCHES
    a = x[inst.rs1]
    b = x[inst.rs2] if two else 0
    if a is None or b is None:
        return False
    if isinstance(a, int) and isinstance(b, int):
        return True                      # outcome is code-determined
    walk.taint.steps.append((
        "br", m, _operand(a, int(live[inst.rs1])),
        _operand(b, int(live[inst.rs2])) if two else None,
        result.jump_to is not None))
    return True


def _rec_load(walk: _LaneWalk, inst, result, pre) -> bool:
    m = inst.mnemonic
    taint = walk.taint
    _, vaddr, size, _ = walk.mem.events[0]
    addr = taint.addr_spec(inst.rs1, inst.imm, vaddr)
    if m in FP_LOADS or addr is None:
        return False
    k = taint.load(pre, addr, size, m in LOAD_SIGNED)
    if inst.rd:
        taint.x[inst.rd] = _mk_lin(0, {("ld", k): 1})
    return True


def _rec_store(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    _, vaddr, size, raw = walk.mem.events[0]
    addr = taint.addr_spec(inst.rs1, inst.imm, vaddr)
    value = taint.x[inst.rs2]
    if inst.mnemonic in FP_STORES or addr is None or value is None:
        return False
    taint.store(pre, addr, size, ("lit", raw) if isinstance(value, int)
                else ("expr", value, len(raw)))
    return True


def _rec_vset(walk: _LaneWalk, inst, result, pre) -> bool:
    if not isinstance(walk.taint.x[inst.rs1], int):
        return False                     # the AVL is not a code constant
    if inst.rd:
        walk.taint.x[inst.rd] = int(walk.regs.x[inst.rd])
    return True


def _rec_vload(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    if not walk.mem.events:              # vl == 0
        taint.v[inst.rd] = _VCONST
        return True
    _, vaddr, size, _ = walk.mem.events[0]
    addr = taint.addr_spec(inst.rs1, inst.imm, vaddr)
    if addr is None:
        return False
    taint.v[inst.rd] = ("vld", taint.load(pre, addr, size, False))
    return True


def _rec_vstore(walk: _LaneWalk, inst, result, pre) -> bool:
    taint = walk.taint
    if not walk.mem.events:
        return True
    _, vaddr, size, raw = walk.mem.events[0]
    addr = taint.addr_spec(inst.rs1, inst.imm, vaddr)
    if addr is None:
        return False
    vt = taint.v[inst.rd]
    if vt is _VCONST:
        taint.store(pre, addr, size, ("lit", raw))
    elif taint.loads[vt[1]] == size:
        # byte passthrough: store the load's live bytes untouched
        taint.store(pre, addr, size, ("pass", vt[1]))
    else:
        return False
    return True


def _rec_nop(walk, inst, result, pre) -> bool:
    return True


#: An op class without a recorder (scalar and vector AMOs, vector ALU
#: ops, indexed gathers/scatters, reductions) leaves its lane walking
#: uncached.
_RECORDERS = {
    OpClass.ALU: _rec_alu,
    OpClass.BRANCH: _rec_branch,
    OpClass.LOAD: _rec_load,
    OpClass.STORE: _rec_store,
    OpClass.VSET: _rec_vset,
    OpClass.VLOAD: _rec_vload,
    OpClass.VSTORE: _rec_vstore,
    OpClass.FENCE: _rec_nop,
    OpClass.RET: _rec_nop,
}


# ---------------------------------------------------------------------------
# replay (hit path): the family's trie, compiled
# ---------------------------------------------------------------------------

def _forward(raw: bytes, vaddr: int, base: int, data: bytes) -> bytes:
    """``raw`` (read at ``vaddr``) as a read behind the path's own earlier
    write of ``data`` at ``base`` sees it: store-buffer forwarding."""
    lo, hi = max(base, vaddr), min(base + len(data), vaddr + len(raw))
    if lo >= hi:
        return raw
    return raw[:lo - vaddr] + data[lo - base:hi - base] + raw[hi - vaddr:]


def _passed_loads(node) -> set[int]:
    """Each load whose bytes a store in the subtree passes through."""
    passed = {access[3][1] for _, _, accesses in node.mems
              for access in accesses
              if access[0] == "st" and access[3][0] == "pass"}
    for child in node.children.values():
        passed |= _passed_loads(child)
    return passed


class _FamilyCompiler:
    """Emits one family's trie as a straight-line Python function.

    The text holds only the trie's ints and what its mnemonics select
    (addresses, sizes, coefficients, cycle counts, comparison operators);
    store literals and the leaf entries are bound by reference through
    the function's namespace.
    """

    def __init__(self, root) -> None:
        self.lines = [
            "def replay(memory, x1, x2, x3, refresh):",
            "    load = memory.load; tmap = memory.page_map",
            "    pages = memory.pages; npg = memory.page_limit",
            "    spad_lo = memory.spad_lo; spad_hi = memory.spad_hi",
            f"    s0 = spad_lo >> {PAGE_SHIFT}; "
            f"s1 = (spad_hi - 1) >> {PAGE_SHIFT}",
            "    c = []; tl = []; sb = sn = 0; vp = -1; pg = None"]
        self.namespace = {"MemAccess": MemAccess, "ZERO": _ZERO,
                          "PathMismatch": _PathMismatch, "forward": _forward,
                          **dict(_UNPACK.values())}
        self.serial = 0                  # one number per emitted access
        #: loads whose bytes a store passes through, somewhere in the trie
        self.passed = _passed_loads(root)
        # what is known at this point of the path being emitted
        self.unpacks: dict[int, str] = {}    # load k -> its bytes' unpacker
        self.values: set[int] = set()        # loads whose int ``v{k}`` exists
        self.writes: list[tuple] = []        # (address, data) names, in order
        self.pre = 0                         # instruction cycles so far
        self.bytes = self.accesses = 0       # bytes and accesses so far

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
                    self.emit(depth, f"v{k} = {self.unpacks[k]}(r{k})[0]")
                tok = f"v{k}"
            elif tok not in ("x1", "x2", "x3"):
                raise ValueError(f"unknown base token {tok!r}")
            terms.append(tok if coef == 1 else f"{int(coef)} * {tok}")
        return " + ".join(terms)

    def access(self, access: tuple, depth: int) -> str:
        """One memory access; returns its refresh ``MemAccess`` event."""
        kind, spec, size = access[0], access[1], int(access[2])
        self.serial += 1
        addr, data = f"a{self.serial}", f"d{self.serial}"
        self.emit(depth, f"{addr} = " + (
            str(to_unsigned64(spec)) if isinstance(spec, int)
            else UNSIGNED64.format(self.lin(spec, depth))))
        self.bytes += size
        self.accesses += 1
        if kind == "ld":
            k = int(access[3])
            self.load(addr, size, k, bool(access[4]), depth)
            for base, written in self.writes:
                self.emit(depth, f"r{k} = forward(r{k}, {addr}, {base}, "
                                 f"{written})")
            return f"MemAccess({addr}, {size}, False)"
        self.emit(depth, f"if spad_lo <= {addr} < spad_hi: "
                         f"sb += {size}; sn += 1")
        value = access[3]
        if value[0] == "lit":
            data = self.bind(value[1])
        elif value[0] == "pass":
            data = f"r{int(value[1])}"
        else:                            # scalar store: at most 8 bytes
            width = int(value[2])
            self.emit(depth, f"{data} = (({self.lin(value[1], depth)}) & "
                             f"{(1 << (8 * width)) - 1})"
                             f".to_bytes({width}, 'little')")
        self.emit(depth, f"c.append(({addr}, {data}))")
        self.writes.append((addr, data))
        return f"MemAccess({addr}, {size}, True)"

    def load(self, addr: str, size: int, k: int, signed: bool,
             depth: int) -> None:
        """Load ``k``: ``memory.load(addr, size)``, inline —
        :meth:`UnitMemory.load <repro.ndp.unit.UnitMemory.load>`'s one
        ``dict.get`` and page slice, memoized per page in ``vp`` (the
        last vpn) and ``pg`` (its page, or None where ``load`` must
        decide: an unmapped page, one past the capacity's last whole
        page, or one the scratchpad window overlaps).  Such a page and a
        page-crossing access call ``load``, and only they can be a
        scratchpad access.  A scalar load whose bytes no store passes
        through or forwards into is read straight into its int
        ``v{k}``, else into the bytes ``r{k}``."""
        unpack = _UNPACK.get((size, signed))
        if unpack is not None:           # every scalar load width
            self.unpacks[k] = unpack[0]
        if unpack is None or k in self.passed or self.writes:
            target, fast, slow = (f"r{k}", f"pg[o:o + {size}].tobytes()",
                                  f"load({addr}, {size})")
        else:
            self.values.add(k)
            target, fast, slow = (f"v{k}", f"{unpack[0]}(pg, o)[0]",
                                  f"{unpack[0]}(load({addr}, {size}))[0]")
        for line in (
                f"if {addr} >> {PAGE_SHIFT} != vp:",
                f"    vp = {addr} >> {PAGE_SHIFT}; e = tmap.get(vp)",
                "    pg = (pages.get(e.ppn, ZERO) if e is not None"
                " and 0 <= e.ppn < npg and not s0 <= vp <= s1 else None)",
                f"o = {addr} & {PAGE_SIZE - 1}",
                f"if pg is not None and o <= {PAGE_SIZE - size}: "
                f"{target} = {fast}",
                "else:",
                f"    {target} = {slow}",
                f"    if spad_lo <= {addr} < spad_hi: sb += {size}; sn += 1"):
            self.emit(depth, line)

    def operand(self, spec: tuple, signed: bool, depth: int) -> str:
        if spec[0] == "lit":
            return str(to_signed64(spec[1]) if signed
                       else to_unsigned64(spec[1]))
        return "(" + (SIGNED64 if signed else UNSIGNED64).format(
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
                               f"c, sb, {self.bytes} - sb, "
                               f"{self.accesses} - sn, tl")
                return
            m, a, b = node.guard
            # a guard compares as the executor's branch does
            compare, signed = BRANCH_OPS[m]
            test = (f"{self.operand(a, signed, depth)} {compare} "
                    + ("0" if b is None else self.operand(b, signed, depth)))
            taken, fallen = node.children.get(True), node.children.get(False)
            if taken is not None and fallen is not None:
                here = (dict(self.unpacks), set(self.values),
                        list(self.writes), self.pre, self.bytes,
                        self.accesses)
                self.emit(depth, f"if {test}:")
                self.node(taken, depth + 1)
                (self.unpacks, self.values, self.writes, self.pre, self.bytes,
                 self.accesses) = here
                self.emit(depth, "else:")
                self.node(fallen, depth + 1)
                return
            # one recorded outcome: the other is a path never walked
            self.emit(depth, f"if {test}: raise PathMismatch" if taken is None
                      else f"if not ({test}): raise PathMismatch")
            node = taken if taken is not None else fallen


def compile_family(family):
    """Generate, compile and install ``family.replay`` from its trie.

    ``replay(memory, x1, x2, x3, refresh)`` is phase A: it reads through
    ``memory`` (the lane's :class:`~repro.ndp.unit.UnitMemory`) and
    returns the matched leaf's ``(entry, pre_cycles, commits, spad_bytes,
    global_bytes, global_accesses, timeline)``.  The text stays on the
    family under a file name of its own (kernel, leaves, text checksum;
    :func:`~repro.isa.executor.run_generated`), so a profile keeps
    families apart; a recompile takes the superseded text out of
    :mod:`linecache`.
    """
    compiler = _FamilyCompiler(family.root)
    compiler.node(family.root, 1)
    source = "\n".join(compiler.lines) + "\n"
    if family.filename:
        forget_generated(family.filename)
    run_generated(source, f"point-family:{to_unsigned64(family.code_hash):x}"
                          f":{family.leaves}", compiler.namespace)
    replay = family.replay = compiler.namespace["replay"]
    family.filename = replay.__code__.co_filename
    family.compiles += 1
    return replay


def _replay_lane(unit, family, x1: int, x2: int, x3: int, t0: float,
                 asid: int, period: float,
                 traffic: list) -> tuple[float, PointPathEntry]:
    """Replay one lane (live registers ``x1``/``x2``/``x3``) through the
    family's compiled trie.

    Raises :class:`_PathMismatch` when a guard outcome has no recorded
    subtree (a control path never walked before) or the replay touches an
    unmapped page, before anything is committed or charged.  On success
    the stores are committed, timing is charged, and (completion_ns,
    matched path entry) returned.  A refresh replay's traffic counters
    are charged with its live timing; any other replay adds its
    scratchpad bytes, global bytes and global accesses to ``traffic``,
    which the launch adds to the stats once.
    """
    memory = unit.memory_for(asid)
    # a refresh replay rebuilds MemAccess events and charges them live,
    # re-recording the matched path's latency profile; the replays in
    # between apply the recorded deltas and only tally traffic counters
    refresh = family.replays % _REFRESH_PERIOD == 0
    replay = family.replay or compile_family(family)
    try:
        (entry, pre_total, commits, spad_bytes, glob_bytes, glob_count,
         timeline) = replay(memory, x1, x2, x3, refresh)
    except TranslationFault:
        raise _PathMismatch from None

    # -- phase B: commit + timing (resolve order == commit order) -------
    store = memory.store
    for vaddr, data in commits:
        store(vaddr, data)
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

    key = point_key(execution)
    family = cache.lookup_point(key, tv)
    identity = (instance.pool_base, instance.offset_bias, instance.args)

    t0 = max(now_ns, device.sim.now) + SPAWN_LATENCY_NS
    lane_done: list[float] = []
    total_inst = 0
    hits = misses = gen_hits = 0
    #: the replays' scratchpad bytes, global bytes and global accesses
    traffic = [0, 0, 0]

    for lane in range(n):
        unit = exec_units[lane % num_units]
        x1 = instance.pool_base + lane * stride
        x2 = instance.offset_bias + lane * stride
        done_t = None
        if family is not None:
            try:
                done_t, entry = _replay_lane(unit, family, x1, x2,
                                             execution.args_vaddr, t0, asid,
                                             period, traffic)
            except _PathMismatch:
                pass
            else:
                hits += 1
                if identity != entry.exemplar:
                    gen_hits += 1
                lane_ops = entry.ops
        if done_t is None:
            walk = _LaneWalk(device, unit, execution, mapped=x1, offset=x2)
            done_t, entry = walk.run(t0)
            lane_ops = walk.ops
            misses += 1
            if entry is not None:
                entry.exemplar = identity
                cache.store_point(key, tv, entry)
                family = cache.lookup_point(key, tv)
        total_inst += lane_ops[0]
        # bulk issue pressure on the lane's sub-core (no per-inst charges)
        unit.subcores[0].service_batch(t0, lane_ops)
        lane_done.append(done_t)

    spad_bytes, glob_bytes, glob_count = traffic
    if spad_bytes:
        stats.add("ndp.spad_traffic_bytes", spad_bytes)
    if glob_count:
        stats.add("ndp.global_traffic_bytes", glob_bytes)
        stats.add("ndp.global_accesses", glob_count)
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
