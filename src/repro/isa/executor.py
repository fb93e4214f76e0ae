"""Functional executor for the M2NDP RISC-V/RVV subset.

:func:`bind` turns one instruction into ``run(regs, mem) -> ExecResult``:
the mnemonic and the operand fields are resolved once, so running it reads
nothing from the :class:`Instruction`.  :func:`decode` binds a whole
program once (memoized on the :class:`~repro.isa.assembler.Program`) and
pairs each ``run`` with its instruction's issue column and latency in
cycles; the interpreter and the point engine's walk step through that.
``bind(inst)(regs, mem)`` runs one instruction, so every op has exactly
one implementation.

Timing is the caller's job (``repro.ndp.subcore``): the executor moves real
data immediately so kernels compute correct results, while the returned
access descriptors let the timing model charge cache/DRAM/scratchpad
latencies.

Atomics execute atomically here, so racy bulk-synchronous µthreads still
produce the correct reductions regardless of how the timing model
interleaves them — the same guarantee the hardware gives.
"""

from __future__ import annotations

import struct
from typing import Callable, Protocol

from repro.errors import ExecutionError
from repro.isa.encoding import FU_COLUMN, Instruction, OpClass
from repro.isa.registers import (
    _U64_MASK,
    UThreadRegisters,
    to_signed32,
    to_signed64,
    to_unsigned64,
)
from repro.isa.vector import (
    as_signed,
    as_unsigned,
    bits_to_float,
    float_to_bits,
    pack_elements,
    unpack_elements,
    vlmax,
)


class MemoryInterface(Protocol):
    """Functional memory the executor reads and writes.

    Implementations route by virtual address (scratchpad window vs. global
    HDM) and perform translation; see ``repro.ndp.unit``.
    """

    def load(self, vaddr: int, size: int) -> bytes: ...

    def store(self, vaddr: int, data: bytes) -> None: ...

    def amo(self, op: str, vaddr: int, operand, size: int,
            is_float: bool) -> int | float: ...


class MemAccess:
    """One memory access performed by an instruction (for the timing model).

    A plain slotted class (not a dataclass): these are constructed on the
    hot path of every load/store the simulator executes.
    """

    __slots__ = ("vaddr", "size", "is_write", "is_amo")

    def __init__(self, vaddr: int, size: int, is_write: bool,
                 is_amo: bool = False) -> None:
        self.vaddr = vaddr
        self.size = size
        self.is_write = is_write
        self.is_amo = is_amo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "amo" if self.is_amo else ("st" if self.is_write else "ld")
        return f"<{kind} {self.vaddr:#x}+{self.size}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MemAccess)
            and (self.vaddr, self.size, self.is_write, self.is_amo)
            == (other.vaddr, other.size, other.is_write, other.is_amo)
        )


class ExecResult:
    """Effects of one executed instruction (slotted, hot path).

    Callers only read it: a branch's taken result and the plain / done
    results are shared between runs.
    """

    __slots__ = ("accesses", "jump_to", "done")

    def __init__(self, accesses: tuple = (), jump_to: int | None = None,
                 done: bool = False) -> None:
        self.accesses = accesses
        self.jump_to = jump_to
        self.done = done


#: What :func:`bind` returns: one instruction, ready to run.
Run = Callable[[UThreadRegisters, MemoryInterface], ExecResult]

_PLAIN = ExecResult()
_DONE = ExecResult(done=True)

# ---------------------------------------------------------------------------
# scalar integer / FP ALU
# ---------------------------------------------------------------------------

_INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 63),
    "srl": lambda a, b: to_unsigned64(a) >> (b & 63),
    "sra": lambda a, b: a >> (b & 63),
    "slt": lambda a, b: int(a < b),
    "sltu": lambda a, b: int(to_unsigned64(a) < to_unsigned64(b)),
    "mul": lambda a, b: a * b,
    "mulhu": lambda a, b: (to_unsigned64(a) * to_unsigned64(b)) >> 64,
    "div": lambda a, b: _int_div(a, b),
    "divu": lambda a, b: _unsigned_div(a, b),
    "rem": lambda a, b: _int_rem(a, b),
    "remu": lambda a, b: _unsigned_rem(a, b),
}

_INT_IMMOPS = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slli": "sll", "srli": "srl", "srai": "sra",
    "slti": "slt", "sltiu": "sltu",
}

_FP_BINOPS = {
    "fadd.s": lambda a, b: a + b, "fadd.d": lambda a, b: a + b,
    "fsub.s": lambda a, b: a - b, "fsub.d": lambda a, b: a - b,
    "fmul.s": lambda a, b: a * b, "fmul.d": lambda a, b: a * b,
    "fdiv.s": lambda a, b: _fp_div(a, b), "fdiv.d": lambda a, b: _fp_div(a, b),
    "fmax.d": max, "fmin.d": min,
}

_FP_COMPARES = {
    "flt.d": lambda a, b: int(a < b),
    "fle.d": lambda a, b: int(a <= b),
    "feq.d": lambda a, b: int(a == b),
}

_BRANCHES = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "bltu": lambda a, b: to_unsigned64(a) < to_unsigned64(b),
    "bgeu": lambda a, b: to_unsigned64(a) >= to_unsigned64(b),
}

_BRANCHES_Z = {
    "beqz": lambda a: a == 0,
    "bnez": lambda a: a != 0,
    "blez": lambda a: a <= 0,
    "bgez": lambda a: a >= 0,
    "bltz": lambda a: a < 0,
    "bgtz": lambda a: a > 0,
}


def _int_div(a: int, b: int) -> int:
    if b == 0:
        return -1
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _int_rem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _int_div(a, b) * b


def _unsigned_div(a: int, b: int) -> int:
    ua, ub = to_unsigned64(a), to_unsigned64(b)
    return (1 << 64) - 1 if ub == 0 else ua // ub


def _unsigned_rem(a: int, b: int) -> int:
    ua, ub = to_unsigned64(a), to_unsigned64(b)
    return ua if ub == 0 else ua % ub


def _fp_div(a: float, b: float) -> float:
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
    return a / b


_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


# ---------------------------------------------------------------------------
# scalar memory
# ---------------------------------------------------------------------------

# Public names: these tables are the single source of truth for memory-op
# metadata (access widths, AMO op/width/float), reused by the vectorized
# engines through repro.isa.vectorops.
LOAD_SIGNED = {"lb": 1, "lh": 2, "lw": 4, "ld": 8}
LOAD_UNSIGNED = {"lbu": 1, "lhu": 2, "lwu": 4}
FP_LOADS = {"flw": 4, "fld": 8}
FP_STORES = {"fsw": 4, "fsd": 8}
STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

AMO_OPS = {
    "amoadd.w": ("add", 4, False), "amoadd.d": ("add", 8, False),
    "amoswap.d": ("swap", 8, False), "amomax.d": ("max", 8, False),
    "amomin.d": ("min", 8, False), "amomin.w": ("min", 4, False),
    "amoor.d": ("or", 8, False),
    "famoadd.s": ("add", 4, True), "famoadd.d": ("add", 8, True),
}


# ---------------------------------------------------------------------------
# binders: instruction -> run(regs, mem)
# ---------------------------------------------------------------------------


def _unhandled(message: str) -> Run:
    """``run`` for an instruction no binder knows: it raises when run,
    never when bound."""

    def run(regs, mem):
        raise ExecutionError(message)
    return run


def _x_write(rd: int, value) -> Run:
    """``run`` writing ``value(x, f)`` to ``x[rd]`` with ``write_x``'s
    rule: wrapped to signed 64 bits, computed and discarded for x0."""

    def run(regs, mem):
        v = value(regs.x, regs.f)
        if rd:
            regs.x[rd] = to_signed64(v)
        return _PLAIN
    return run


def _f_write(rd: int, value) -> Run:
    """``run`` writing ``float(value(x, f))`` to ``f[rd]``."""

    def run(regs, mem):
        regs.f[rd] = float(value(regs.x, regs.f))
        return _PLAIN
    return run


def _bind_scalar_alu(inst: Instruction) -> Run:
    m, rd, rs1, rs2, rs3, imm = (inst.mnemonic, inst.rd, inst.rs1, inst.rs2,
                                 inst.rs3, inst.imm)
    if m in _INT_BINOPS:
        op = _INT_BINOPS[m]
        return _x_write(rd, lambda x, f: op(x[rs1], x[rs2]))
    if m in _INT_IMMOPS:
        op = _INT_BINOPS[_INT_IMMOPS[m]]
        return _x_write(rd, lambda x, f: op(x[rs1], imm))
    if m in ("addw", "mulw"):
        op = _INT_BINOPS["add" if m == "addw" else "mul"]
        return _x_write(rd, lambda x, f: to_signed32(op(x[rs1], x[rs2])))
    if m == "li":
        return _x_write(rd, lambda x, f: imm)
    if m == "lui":
        return _x_write(rd, lambda x, f: imm << 12)
    if m == "mv":
        return _x_write(rd, lambda x, f: x[rs1])
    if m == "neg":
        return _x_write(rd, lambda x, f: -x[rs1])
    if m == "seqz":
        return _x_write(rd, lambda x, f: int(x[rs1] == 0))
    if m == "snez":
        return _x_write(rd, lambda x, f: int(x[rs1] != 0))
    if m in _FP_BINOPS:
        op = _FP_BINOPS[m]
        return _f_write(rd, lambda x, f: op(f[rs1], f[rs2]))
    if m in _FP_COMPARES:
        op = _FP_COMPARES[m]
        return _x_write(rd, lambda x, f: op(f[rs1], f[rs2]))
    if m == "fmadd.d":
        return _f_write(rd, lambda x, f: f[rs1] * f[rs2] + f[rs3])
    if m == "fsqrt.d":
        def sqrt(x, f):
            value = f[rs1]
            if value < 0:
                raise ExecutionError("fsqrt of negative value")
            return value ** 0.5
        return _f_write(rd, sqrt)
    if m == "fmv.d":
        return _f_write(rd, lambda x, f: f[rs1])
    if m == "fmv.x.d":
        return _x_write(rd, lambda x, f: _U64.unpack(_F64.pack(f[rs1]))[0])
    if m == "fmv.d.x":
        return _f_write(
            rd, lambda x, f: _F64.unpack(_U64.pack(to_unsigned64(x[rs1])))[0])
    if m in ("fcvt.d.l", "fcvt.s.l"):
        return _f_write(rd, lambda x, f: float(x[rs1]))
    if m == "fcvt.l.d":
        return _x_write(rd, lambda x, f: int(f[rs1]))
    return _unhandled(f"unhandled ALU mnemonic {m}")


def _bind_load(inst: Instruction) -> Run:
    m, rd, rs1, imm = inst.mnemonic, inst.rd, inst.rs1, inst.imm
    if m in FP_LOADS:
        size = FP_LOADS[m]
        unpack = (_F32 if size == 4 else _F64).unpack

        def run(regs, mem):
            addr = (regs.x[rs1] + imm) & _U64_MASK
            regs.f[rd] = unpack(mem.load(addr, size))[0]
            return ExecResult((MemAccess(addr, size, False),))
        return run

    size = LOAD_SIGNED.get(m) or LOAD_UNSIGNED.get(m)
    if size is None:
        return _unhandled(f"unhandled load mnemonic {m}")
    signed = m in LOAD_SIGNED

    def run(regs, mem):
        x = regs.x
        addr = (x[rs1] + imm) & _U64_MASK
        value = int.from_bytes(mem.load(addr, size), "little", signed=signed)
        if rd:
            # every load width fits signed 64 bits: write_x's wrap is a no-op
            x[rd] = value
        return ExecResult((MemAccess(addr, size, False),))
    return run


def _bind_store(inst: Instruction) -> Run:
    m, rs1, rs2, imm = inst.mnemonic, inst.rs1, inst.rs2, inst.imm
    if m in FP_STORES:
        size = FP_STORES[m]
        pack = (_F32 if size == 4 else _F64).pack

        def run(regs, mem):
            addr = (regs.x[rs1] + imm) & _U64_MASK
            mem.store(addr, pack(regs.f[rs2]))
            return ExecResult((MemAccess(addr, size, True),))
        return run

    size = STORES.get(m)
    if size is None:
        return _unhandled(f"unhandled store mnemonic {m}")
    mask = (1 << (8 * size)) - 1

    def run(regs, mem):
        x = regs.x
        addr = (x[rs1] + imm) & _U64_MASK
        mem.store(addr, (x[rs2] & mask).to_bytes(size, "little"))
        return ExecResult((MemAccess(addr, size, True),))
    return run


def _bind_amo(inst: Instruction) -> Run:
    spec = AMO_OPS.get(inst.mnemonic)
    if spec is None:
        return _unhandled(f"unhandled AMO mnemonic {inst.mnemonic}")
    op, size, is_float = spec
    rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm
    if is_float:
        def run(regs, mem):
            addr = (regs.x[rs1] + imm) & _U64_MASK
            regs.f[rd] = float(mem.amo(op, addr, regs.f[rs2], size, True))
            return ExecResult((MemAccess(addr, size, True, True),))
        return run

    def run(regs, mem):
        x = regs.x
        addr = (x[rs1] + imm) & _U64_MASK
        operand = x[rs2]
        if size == 4:
            operand = to_signed32(operand)
        regs.write_x(rd, mem.amo(op, addr, operand, size, False))
        return ExecResult((MemAccess(addr, size, True, True),))
    return run


def _bind_branch(inst: Instruction) -> Run:
    m, rs1, rs2 = inst.mnemonic, inst.rs1, inst.rs2
    taken = ExecResult(jump_to=inst.target)
    if m == "j":
        return lambda regs, mem: taken
    if m in _BRANCHES:
        cond = _BRANCHES[m]

        def run(regs, mem):
            x = regs.x
            return taken if cond(x[rs1], x[rs2]) else _PLAIN
        return run
    if m in _BRANCHES_Z:
        cond_z = _BRANCHES_Z[m]
        return lambda regs, mem: taken if cond_z(regs.x[rs1]) else _PLAIN
    return _unhandled(f"unhandled branch mnemonic {m}")


# ---------------------------------------------------------------------------
# vector
# ---------------------------------------------------------------------------

_V_INT_BINOPS = {
    "vadd.vv": lambda a, b: a + b,
    "vsub.vv": lambda a, b: a - b,
    "vmul.vv": lambda a, b: a * b,
}

_V_INT_SCALAR = {
    "vadd.vx": lambda a, s: a + s,
    "vmul.vx": lambda a, s: a * s,
    "vand.vx": lambda a, s: a & s,
}

_V_INT_IMM = {
    "vadd.vi": lambda a, s: a + s,
    "vsll.vi": lambda a, s: a << s,
    "vsrl.vi": lambda a, s: a >> s,
}

_V_FP_BINOPS = {
    "vfadd.vv": lambda a, b: a + b,
    "vfsub.vv": lambda a, b: a - b,
    "vfmul.vv": lambda a, b: a * b,
}

_V_FP_SCALAR = {
    "vfadd.vf": lambda a, s: a + s,
    "vfmul.vf": lambda a, s: a * s,
}

_V_INT_COMPARES = {
    "vmseq.vx": lambda a, s: int(a == s),
    "vmsne.vx": lambda a, s: int(a != s),
    "vmslt.vx": lambda a, s: int(a < s),
    "vmsle.vx": lambda a, s: int(a <= s),
    "vmsgt.vx": lambda a, s: int(a > s),
    "vmsge.vx": lambda a, s: int(a >= s),
}

_V_FP_COMPARES = {
    "vmflt.vf": lambda a, s: int(a < s),
    "vmfle.vf": lambda a, s: int(a <= s),
    "vmfgt.vf": lambda a, s: int(a > s),
    "vmfge.vf": lambda a, s: int(a >= s),
}


def _vl_of(regs: UThreadRegisters, sew: int) -> int:
    return regs.effective_vl(vlmax(sew))


def _read_v(regs: UThreadRegisters, idx: int, count: int) -> list[int]:
    values = regs.v[idx]
    if len(values) < count:
        values = values + [0] * (count - len(values))
    return values[:count]


def _bind_vset(inst: Instruction) -> Run:
    sew, rd, rs1 = inst.imm, inst.rd, inst.rs1

    def run(regs, mem):
        requested = regs.x[rs1]
        if requested < 0:
            raise ExecutionError(f"vsetvli with negative AVL {requested}")
        vl = min(requested, vlmax(sew))
        regs.sew = sew
        regs.vl = vl
        regs.write_x(rd, vl)
        return _PLAIN
    return run


def _bind_vload(inst: Instruction) -> Run:
    size, rd, rs1, imm = inst.size, inst.rd, inst.rs1, inst.imm
    sew = size * 8

    def run(regs, mem):
        vl = _vl_of(regs, sew)
        if vl == 0:
            regs.write_v(rd, [])
            return _PLAIN
        addr = to_unsigned64(regs.x[rs1] + imm)
        raw = mem.load(addr, vl * size)
        regs.write_v(rd, unpack_elements(raw, sew))
        return ExecResult((MemAccess(addr, vl * size, False),))
    return run


def _bind_vstore(inst: Instruction) -> Run:
    size, rd, rs1, imm = inst.size, inst.rd, inst.rs1, inst.imm
    sew = size * 8

    def run(regs, mem):
        vl = _vl_of(regs, sew)
        if vl == 0:
            return _PLAIN
        addr = to_unsigned64(regs.x[rs1] + imm)
        mem.store(addr, pack_elements(_read_v(regs, rd, vl), sew))
        return ExecResult((MemAccess(addr, vl * size, True),))
    return run


def _bind_vgather(inst: Instruction) -> Run:
    """Indexed load: vd[i] = mem[x[rs1] + offsets[i]] (offsets in bytes)."""
    size, rd, rs1, rs2 = inst.size, inst.rd, inst.rs1, inst.rs2
    sew = size * 8

    def run(regs, mem):
        vl = _vl_of(regs, sew)
        base = to_unsigned64(regs.x[rs1])
        out: list[int] = []
        accesses: list[MemAccess] = []
        for off in _read_v(regs, rs2, vl):
            addr = to_unsigned64(base + off)
            out.append(int.from_bytes(mem.load(addr, size), "little"))
            accesses.append(MemAccess(addr, size, False))
        regs.write_v(rd, out)
        return ExecResult(tuple(accesses))
    return run


def _bind_vscatter(inst: Instruction) -> Run:
    size, rd, rs1, rs2 = inst.size, inst.rd, inst.rs1, inst.rs2
    sew = size * 8

    def run(regs, mem):
        vl = _vl_of(regs, sew)
        base = to_unsigned64(regs.x[rs1])
        offsets = _read_v(regs, rs2, vl)
        values = _read_v(regs, rd, vl)
        accesses: list[MemAccess] = []
        for off, value in zip(offsets, values):
            addr = to_unsigned64(base + off)
            mem.store(addr, pack_elements([value], sew))
            accesses.append(MemAccess(addr, size, True))
        return ExecResult(tuple(accesses))
    return run


def _bind_vamo(inst: Instruction) -> Run:
    """Indexed atomic add (v-amo): mem[base + off[i]] += vs3[i]."""
    size, rd, rs1, rs2 = inst.size, inst.rd, inst.rs1, inst.rs2
    sew = size * 8

    def run(regs, mem):
        vl = _vl_of(regs, sew)
        base = to_unsigned64(regs.x[rs1])
        offsets = _read_v(regs, rs2, vl)
        values = _read_v(regs, rd, vl)
        accesses: list[MemAccess] = []
        for off, value in zip(offsets, values):
            addr = to_unsigned64(base + off)
            mem.amo("add", addr, as_signed(value, sew), size, False)
            accesses.append(MemAccess(addr, size, True, True))
        return ExecResult(tuple(accesses))
    return run


def _bind_valu(inst: Instruction) -> Run:
    """Vector ALU ops: ``body(regs, sew, vl)`` at the µthread's current
    SEW and vector length, both read when the instruction runs."""
    m, rd, rs1, rs2, imm = inst.mnemonic, inst.rd, inst.rs1, inst.rs2, inst.imm

    if m in _V_INT_BINOPS:
        op = _V_INT_BINOPS[m]

        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            vb = _read_v(regs, rs2, vl)
            regs.write_v(rd, [
                as_unsigned(op(as_signed(a, sew), as_signed(b, sew)), sew)
                for a, b in zip(va, vb)
            ])
    elif m in _V_INT_SCALAR:
        op = _V_INT_SCALAR[m]

        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            scalar = regs.x[rs2]
            regs.write_v(rd, [
                as_unsigned(op(as_signed(a, sew), scalar), sew) for a in va
            ])
    elif m in _V_INT_IMM:
        op = _V_INT_IMM[m]

        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            regs.write_v(rd, [
                as_unsigned(op(as_signed(a, sew), imm), sew) for a in va
            ])
    elif m == "vmacc.vv":
        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            vb = _read_v(regs, rs2, vl)
            vd = _read_v(regs, rd, vl)
            regs.write_v(rd, [
                as_unsigned(as_signed(d, sew)
                            + as_signed(a, sew) * as_signed(b, sew), sew)
                for d, a, b in zip(vd, va, vb)
            ])
    elif m in _V_FP_BINOPS:
        op = _V_FP_BINOPS[m]

        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            vb = _read_v(regs, rs2, vl)
            regs.write_v(rd, [
                float_to_bits(op(bits_to_float(a, sew), bits_to_float(b, sew)),
                              sew)
                for a, b in zip(va, vb)
            ])
    elif m in _V_FP_SCALAR:
        op = _V_FP_SCALAR[m]

        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            scalar = regs.f[rs2]
            regs.write_v(rd, [
                float_to_bits(op(bits_to_float(a, sew), scalar), sew)
                for a in va
            ])
    elif m == "vfmacc.vf":
        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            scalar = regs.f[rs2]
            vd = _read_v(regs, rd, vl)
            regs.write_v(rd, [
                float_to_bits(
                    bits_to_float(d, sew) + bits_to_float(a, sew) * scalar, sew
                )
                for d, a in zip(vd, va)
            ])
    elif m == "vfmacc.vv":
        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            vb = _read_v(regs, rs2, vl)
            vd = _read_v(regs, rd, vl)
            regs.write_v(rd, [
                float_to_bits(
                    bits_to_float(d, sew)
                    + bits_to_float(a, sew) * bits_to_float(b, sew),
                    sew,
                )
                for d, a, b in zip(vd, va, vb)
            ])
    elif m in _V_INT_COMPARES:
        op = _V_INT_COMPARES[m]

        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            scalar = regs.x[rs2]
            regs.write_v(rd, [op(as_signed(a, sew), scalar) for a in va])
    elif m in _V_FP_COMPARES:
        op = _V_FP_COMPARES[m]

        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            scalar = regs.f[rs2]
            regs.write_v(rd, [op(bits_to_float(a, sew), scalar) for a in va])
    elif m == "vmand.mm":
        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            vb = _read_v(regs, rs2, vl)
            regs.write_v(rd, [int(bool(a) and bool(b)) for a, b in zip(va, vb)])
    elif m == "vmor.mm":
        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            vb = _read_v(regs, rs2, vl)
            regs.write_v(rd, [int(bool(a) or bool(b)) for a, b in zip(va, vb)])
    elif m == "vmerge.vxm":
        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            scalar = as_unsigned(regs.x[rs2], sew)
            mask = _read_v(regs, 0, vl)
            regs.write_v(rd, [scalar if mask[i] else va[i] for i in range(vl)])
    elif m == "vmerge.vim":
        def body(regs, sew, vl):
            va = _read_v(regs, rs1, vl)
            value = as_unsigned(imm, sew)
            mask = _read_v(regs, 0, vl)
            regs.write_v(rd, [value if mask[i] else va[i] for i in range(vl)])
    elif m == "vmv.v.i":
        def body(regs, sew, vl):
            regs.write_v(rd, [as_unsigned(imm, sew)] * vl)
    elif m == "vmv.v.x":
        def body(regs, sew, vl):
            regs.write_v(rd, [as_unsigned(regs.x[rs1], sew)] * vl)
    elif m == "vmv.v.v":
        def body(regs, sew, vl):
            regs.write_v(rd, list(_read_v(regs, rs1, vl)))
    elif m == "vid.v":
        def body(regs, sew, vl):
            regs.write_v(rd, list(range(vl)))
    elif m == "vfmv.v.f":
        def body(regs, sew, vl):
            regs.write_v(rd, [float_to_bits(regs.f[rs1], sew)] * vl)
    elif m == "vmv.x.s":
        def body(regs, sew, vl):
            values = regs.v[rs1]
            regs.write_x(rd, as_signed(values[0], sew) if values else 0)
    elif m == "vmv.s.x":
        def body(regs, sew, vl):
            values = list(regs.v[rd])
            if not values:
                values = [0]
            values[0] = as_unsigned(regs.x[rs1], sew)
            regs.write_v(rd, values)
    elif m == "vfmv.f.s":
        def body(regs, sew, vl):
            values = regs.v[rs1]
            regs.write_f(rd, bits_to_float(values[0], sew) if values else 0.0)
    else:
        def body(regs, sew, vl):
            raise ExecutionError(f"unhandled vector mnemonic {m}")

    def run(regs, mem):
        sew = regs.sew
        body(regs, sew, _vl_of(regs, sew))
        return _PLAIN
    return run


def _bind_vred(inst: Instruction) -> Run:
    """Reductions: vd[0] = reduce(va) OP-combined with vb[0] (RVV .vs)."""
    m, rd, rs1, rs2 = inst.mnemonic, inst.rd, inst.rs1, inst.rs2

    if m == "vredsum.vs":
        def reduce(seed, va, sew):
            total = as_signed(seed, sew) + sum(as_signed(a, sew) for a in va)
            return as_unsigned(total, sew)
    elif m == "vredmax.vs":
        def reduce(seed, va, sew):
            return as_unsigned(
                max([as_signed(seed, sew)] + [as_signed(a, sew) for a in va]),
                sew)
    elif m == "vredmin.vs":
        def reduce(seed, va, sew):
            return as_unsigned(
                min([as_signed(seed, sew)] + [as_signed(a, sew) for a in va]),
                sew)
    elif m == "vfredusum.vs":
        def reduce(seed, va, sew):
            total = (bits_to_float(seed, sew)
                     + sum(bits_to_float(a, sew) for a in va))
            return float_to_bits(total, sew)
    elif m == "vfredmax.vs":
        def reduce(seed, va, sew):
            values = ([bits_to_float(seed, sew)]
                      + [bits_to_float(a, sew) for a in va])
            return float_to_bits(max(values), sew)
    else:
        def reduce(seed, va, sew):
            raise ExecutionError(f"unhandled reduction {m}")

    def run(regs, mem):
        sew = regs.sew
        vl = _vl_of(regs, sew)
        va = _read_v(regs, rs1, vl)
        vb = _read_v(regs, rs2, max(vl, 1))
        regs.write_v(rd, [reduce(vb[0] if vb else 0, va, sew)])
        return _PLAIN
    return run


# ---------------------------------------------------------------------------
# bind / decode
# ---------------------------------------------------------------------------


def _plain(regs, mem) -> ExecResult:
    return _PLAIN


def _done(regs, mem) -> ExecResult:
    return _DONE


_BINDERS = {
    OpClass.ALU: _bind_scalar_alu,
    OpClass.VALU_OP: _bind_valu,
    OpClass.BRANCH: _bind_branch,
    OpClass.LOAD: _bind_load,
    OpClass.STORE: _bind_store,
    OpClass.AMO: _bind_amo,
    OpClass.VLOAD: _bind_vload,
    OpClass.VSTORE: _bind_vstore,
    OpClass.VGATHER: _bind_vgather,
    OpClass.VSCATTER: _bind_vscatter,
    OpClass.VAMO: _bind_vamo,
    OpClass.VRED: _bind_vred,
    OpClass.VSET: _bind_vset,
    OpClass.FENCE: lambda inst: _plain,
    OpClass.RET: lambda inst: _done,
}


def bind(inst: Instruction) -> Run:
    """``run(regs, mem)`` executing ``inst``: mutates ``regs``/memory and
    reports the effects.  Binding raises nothing an instruction would
    raise only when run (fsqrt of a negative value, a negative AVL)."""
    return _BINDERS[inst.op_class](inst)


def decode(program) -> tuple[tuple[Run, int, int], ...]:
    """``(run, fu_column, latency_cycles)`` per instruction of a
    :class:`~repro.isa.assembler.Program`, bound once and memoized on it.

    The latency stays in cycles: one program runs at several NDP clocks
    (the frequency sweep), and each sub-core multiplies by its own period.
    """
    code = getattr(program, "_decoded", None)
    if code is None:
        code = program._decoded = tuple(
            (bind(inst), FU_COLUMN[inst.unit], inst.latency_cycles)
            for inst in program.instructions)
    return code
