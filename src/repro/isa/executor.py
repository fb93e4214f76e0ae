"""Functional executor for the M2NDP RISC-V/RVV subset.

:func:`bind` turns one instruction into ``run(regs, mem) -> ExecResult``:
the mnemonic and the operand fields are resolved once, so running it reads
nothing from the :class:`Instruction`.  :func:`decode` binds a whole
program once (memoized on the :class:`~repro.isa.assembler.Program`) and
pairs each ``run`` with its instruction's issue column and latency in
cycles; the point engine's lane walk steps through that.

The scalar ALU, branch, load, store and AMO semantics are one table of
expression templates (:data:`SCALAR_ALU`, :data:`BRANCH_OPS` and the
memory-op tables, made statements by :func:`scalar_statements` /
:func:`branch_test`).  ``bind`` builds its scalar ``run`` from them
(compiled statements, or a branch predicate generated from
:data:`BRANCH_OPS`), the interpreter's compiled bursts
(:func:`repro.exec.interpreter.compile_burst`) inline the same text, and
the point compiler's guards read :data:`BRANCH_OPS`; vector ops are bound
closures.  So every op has exactly one implementation.

Timing is the caller's job (``repro.ndp.subcore``): the executor moves real
data immediately so kernels compute correct results, while the returned
access descriptors let the timing model charge cache/DRAM/scratchpad
latencies.

Atomics execute atomically here, so racy bulk-synchronous µthreads still
produce the correct reductions regardless of how the timing model
interleaves them — the same guarantee the hardware gives.
"""

from __future__ import annotations

import linecache
import struct
import zlib
from typing import Callable, Protocol

from repro.errors import ExecutionError
from repro.isa.encoding import FU_COLUMN, Instruction, OpClass
from repro.isa.registers import UThreadRegisters, to_unsigned64
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
# scalar semantics: one table of expression templates
# ---------------------------------------------------------------------------

#: Templates wrapping an integer expression to signed / unsigned 64 bits
#: (``to_signed64`` / ``to_unsigned64`` as text; the point compiler's
#: replay code uses them too).
SIGNED64 = "(({} + 0x8000000000000000) & 0xFFFFFFFFFFFFFFFF) - 0x8000000000000000"
UNSIGNED64 = "({}) & 0xFFFFFFFFFFFFFFFF"
#: and to signed 32 bits (the ``.w`` instructions)
_SIGNED32 = "(({} + 0x80000000) & 0xFFFFFFFF) - 0x80000000"

#: The scalar ALU: mnemonic -> (destination file, operands, template).
#: ``{0}``, ``{1}``, ``{2}`` are the operands in order, each ``x1`` /
#: ``x2`` (``x[rs1]`` / ``x[rs2]``), ``f1`` / ``f2`` / ``f3``
#: (``f[rs1..3]``) or ``imm``.  Writing the result follows ``write_x`` /
#: ``write_f``: an x result is wrapped to signed 64 bits (and computed,
#: then dropped, for x0), an f result is taken as ``float``.
SCALAR_ALU = {
    "add": ("x", "x1 x2", "{0} + {1}"),
    "sub": ("x", "x1 x2", "{0} - {1}"),
    "and": ("x", "x1 x2", "{0} & {1}"),
    "or": ("x", "x1 x2", "{0} | {1}"),
    "xor": ("x", "x1 x2", "{0} ^ {1}"),
    "sll": ("x", "x1 x2", "{0} << ({1} & 63)"),
    "srl": ("x", "x1 x2", "(" + UNSIGNED64.format("{0}") + ") >> ({1} & 63)"),
    "sra": ("x", "x1 x2", "{0} >> ({1} & 63)"),
    "slt": ("x", "x1 x2", "int({0} < {1})"),
    "sltu": ("x", "x1 x2", "int((" + UNSIGNED64.format("{0}") + ") < ("
             + UNSIGNED64.format("{1}") + "))"),
    "mul": ("x", "x1 x2", "{0} * {1}"),
    "mulhu": ("x", "x1 x2", "((" + UNSIGNED64.format("{0}") + ") * ("
              + UNSIGNED64.format("{1}") + ")) >> 64"),
    "div": ("x", "x1 x2", "_int_div({0}, {1})"),
    "divu": ("x", "x1 x2", "_unsigned_div({0}, {1})"),
    "rem": ("x", "x1 x2", "_int_rem({0}, {1})"),
    "remu": ("x", "x1 x2", "_unsigned_rem({0}, {1})"),
    "addw": ("x", "x1 x2", _SIGNED32.format("{0} + {1}")),
    "mulw": ("x", "x1 x2", _SIGNED32.format("{0} * {1}")),
    "addi": ("x", "x1 imm", "{0} + {1}"),
    "andi": ("x", "x1 imm", "{0} & {1}"),
    "ori": ("x", "x1 imm", "{0} | {1}"),
    "xori": ("x", "x1 imm", "{0} ^ {1}"),
    "slli": ("x", "x1 imm", "{0} << ({1} & 63)"),
    "srli": ("x", "x1 imm", "(" + UNSIGNED64.format("{0}") + ") >> ({1} & 63)"),
    "srai": ("x", "x1 imm", "{0} >> ({1} & 63)"),
    "slti": ("x", "x1 imm", "int({0} < {1})"),
    "sltiu": ("x", "x1 imm", "int((" + UNSIGNED64.format("{0}") + ") < ("
              + UNSIGNED64.format("{1}") + "))"),
    "li": ("x", "imm", "{0}"),
    "lui": ("x", "imm", "{0} << 12"),
    "mv": ("x", "x1", "{0}"),
    "neg": ("x", "x1", "-{0}"),
    "seqz": ("x", "x1", "int({0} == 0)"),
    "snez": ("x", "x1", "int({0} != 0)"),
    "fadd.s": ("f", "f1 f2", "{0} + {1}"),
    "fadd.d": ("f", "f1 f2", "{0} + {1}"),
    "fsub.s": ("f", "f1 f2", "{0} - {1}"),
    "fsub.d": ("f", "f1 f2", "{0} - {1}"),
    "fmul.s": ("f", "f1 f2", "{0} * {1}"),
    "fmul.d": ("f", "f1 f2", "{0} * {1}"),
    "fdiv.s": ("f", "f1 f2", "_fp_div({0}, {1})"),
    "fdiv.d": ("f", "f1 f2", "_fp_div({0}, {1})"),
    "fmax.d": ("f", "f1 f2", "max({0}, {1})"),
    "fmin.d": ("f", "f1 f2", "min({0}, {1})"),
    "flt.d": ("x", "f1 f2", "int({0} < {1})"),
    "fle.d": ("x", "f1 f2", "int({0} <= {1})"),
    "feq.d": ("x", "f1 f2", "int({0} == {1})"),
    "fmadd.d": ("f", "f1 f2 f3", "{0} * {1} + {2}"),
    "fsqrt.d": ("f", "f1", "_fsqrt({0})"),
    "fmv.d": ("f", "f1", "{0}"),
    "fmv.x.d": ("x", "f1", "_U64.unpack(_F64.pack({0}))[0]"),
    "fmv.d.x": ("f", "x1", "_F64.unpack(_U64.pack("
                + UNSIGNED64.format("{0}") + "))[0]"),
    "fcvt.d.l": ("f", "x1", "float({0})"),
    "fcvt.s.l": ("f", "x1", "float({0})"),
    "fcvt.l.d": ("x", "f1", "int({0})"),
}

#: Conditional branches: mnemonic -> (comparison, signed operands).  A
#: ``z`` form compares ``x[rs1]`` with 0.  Equality reads the same either
#: way and takes the cheaper unsigned form.
BRANCH_OPS = {
    "beq": ("==", False), "bne": ("!=", False), "blt": ("<", True),
    "bge": (">=", True), "bltu": ("<", False), "bgeu": (">=", False),
    "beqz": ("==", False), "bnez": ("!=", False), "blez": ("<=", True),
    "bgez": (">=", True), "bltz": ("<", True), "bgtz": (">", True),
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


def _fsqrt(value: float) -> float:
    if value < 0:
        raise ExecutionError("fsqrt of negative value")
    return value ** 0.5


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
# the tables as code: statements over locals x, f, mem
# ---------------------------------------------------------------------------

#: Names the generated scalar code reads besides ``x``, ``f`` and ``mem``.
SCALAR_NAMESPACE = {
    "_int_div": _int_div, "_int_rem": _int_rem,
    "_unsigned_div": _unsigned_div, "_unsigned_rem": _unsigned_rem,
    "_fp_div": _fp_div, "_fsqrt": _fsqrt,
    "_F32": _F32, "_F64": _F64, "_U64": _U64,
}


#: generated file name -> how many :func:`run_generated` calls made it
#: and no :func:`forget_generated` call gave it up yet
_HOLDERS: dict[str, int] = {}


def run_generated(source: str, label: str, namespace: dict) -> dict:
    """Execute generated ``source`` into ``namespace`` and return it.

    The code gets a file name of its own, ``<label:checksum>``, and
    :mod:`linecache` serves its text, so tracebacks and profiles show the
    generated lines (``pstats`` keys rows by file name).
    """
    filename = f"<{label}:{zlib.crc32(source.encode()):08x}>"
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    _HOLDERS[filename] = _HOLDERS.get(filename, 0) + 1
    return namespace


def forget_generated(filename: str) -> None:
    """One holder of the code :func:`run_generated` named ``filename``
    dropped it; the last one takes its text out of :mod:`linecache` (two
    holders of the same text share one name)."""
    left = _HOLDERS.pop(filename) - 1
    if left:
        _HOLDERS[filename] = left
    else:
        linecache.cache.pop(filename, None)


def _x_store(rd, value: str) -> str:
    """``write_x(rd, value)`` as a statement."""
    return f"x[{rd}] = {SIGNED64.format(f'({value})')}" if rd else value


def _compare(mnemonic: str, a: str, b: str) -> str | None:
    """:data:`BRANCH_OPS` ``[mnemonic]`` over operand texts ``a`` and
    ``b``; None for a mnemonic it does not hold."""
    spec = BRANCH_OPS.get(mnemonic)
    if spec is None:
        return None
    compare, signed = spec
    if not signed and compare not in ("==", "!="):
        a, b = UNSIGNED64.format(a), UNSIGNED64.format(b)
    return f"({a}) {compare} ({b})"


def branch_test(inst: Instruction) -> str | None:
    """The taken condition of a conditional branch over ``x``; None for a
    mnemonic :data:`BRANCH_OPS` does not hold."""
    return _compare(inst.mnemonic, f"x[{inst.rs1}]",
                    "0" if inst.mnemonic.endswith("z") else f"x[{inst.rs2}]")


def scalar_statements(inst: Instruction) -> tuple[list[str], tuple | None] | None:
    """``(statements, access)`` executing a scalar ALU, load, store or AMO
    instruction over locals ``x``, ``f`` and ``mem``, from the tables
    above; None for a mnemonic they do not hold.

    ``access`` is None for the ALU, else ``(size, is_write, is_amo)`` of
    the one memory access, whose address the statements leave in ``a``.
    """
    m, rd = inst.mnemonic, inst.rd
    spec = SCALAR_ALU.get(m)
    if spec is not None:
        dest, operands, template = spec
        fields = {"x1": f"x[{inst.rs1}]", "x2": f"x[{inst.rs2}]",
                  "f1": f"f[{inst.rs1}]", "f2": f"f[{inst.rs2}]",
                  "f3": f"f[{inst.rs3}]", "imm": f"({inst.imm})"}
        value = template.format(*(fields[op] for op in operands.split()))
        return ([_x_store(rd, value) if dest == "x"
                 else f"f[{rd}] = float({value})"], None)
    address = f"a = {UNSIGNED64.format(f'x[{inst.rs1}] + ({inst.imm})')}"
    if m in LOAD_SIGNED or m in LOAD_UNSIGNED:
        size = LOAD_SIGNED.get(m) or LOAD_UNSIGNED[m]
        # every load width fits signed 64 bits: write_x's wrap is a no-op
        value = (f"int.from_bytes(mem.load(a, {size}), 'little', "
                 f"signed={m in LOAD_SIGNED})")
        return [address, f"x[{rd}] = {value}" if rd else value], \
            (size, False, False)
    if m in FP_LOADS:
        size = FP_LOADS[m]
        return [address, f"f[{rd}] = _F{8 * size}.unpack(mem.load(a, "
                         f"{size}))[0]"], (size, False, False)
    if m in STORES:
        size = STORES[m]
        return [address, f"mem.store(a, (x[{inst.rs2}] & "
                         f"{(1 << (8 * size)) - 1}).to_bytes({size}, "
                         f"'little'))"], (size, True, False)
    if m in FP_STORES:
        size = FP_STORES[m]
        return [address, f"mem.store(a, _F{8 * size}.pack(f[{inst.rs2}]))"], \
            (size, True, False)
    if m in AMO_OPS:
        op, size, is_float = AMO_OPS[m]
        if is_float:
            update = (f"f[{rd}] = float(mem.amo({op!r}, a, f[{inst.rs2}], "
                      f"{size}, True))")
        else:
            operand = f"x[{inst.rs2}]"
            if size == 4:
                operand = _SIGNED32.format(operand)
            update = _x_store(
                rd, f"mem.amo({op!r}, a, {operand}, {size}, False)")
        return [address, update], (size, True, True)
    return None


#: generated ``run`` functions by source text: equal instructions share one
_RUNS: dict[str, Run] = {}


def _generated_run(body: list[str], ret: str) -> Run:
    """``run(regs, mem)`` executing ``body`` and returning ``ret``."""
    source = "\n".join(
        ["def run(regs, mem):", "    x = regs.x", "    f = regs.f"]
        + [f"    {line}" for line in body] + [f"    return {ret}"])
    run = _RUNS.get(source)
    if run is None:
        namespace = run_generated(
            source + "\n", "scalar-op",
            dict(SCALAR_NAMESPACE, _PLAIN=_PLAIN, ExecResult=ExecResult,
                 MemAccess=MemAccess))
        run = _RUNS[source] = namespace["run"]
    return run


def _bind_scalar(inst: Instruction) -> Run:
    code = scalar_statements(inst)
    if code is None:
        kind = {OpClass.ALU: "ALU", OpClass.AMO: "AMO"}.get(
            inst.op_class, inst.op_class.value)
        return _unhandled(f"unhandled {kind} mnemonic {inst.mnemonic}")
    body, access = code
    if access is None:
        return _generated_run(body, "_PLAIN")
    size, is_write, is_amo = access
    return _generated_run(
        body, f"ExecResult((MemAccess(a, {size}, {is_write}, {is_amo}),))")


#: :data:`BRANCH_OPS` as predicates over register values: ``(a, b)``, or
#: ``(a,)`` for a ``z`` form.
_BRANCHES = {m: eval(f"lambda a, b: {_compare(m, 'a', 'b')}")
             for m in BRANCH_OPS if not m.endswith("z")}
_BRANCHES_Z = {m: eval(f"lambda a: {_compare(m, 'a', '0')}")
               for m in BRANCH_OPS if m.endswith("z")}


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
# binders: instruction -> run(regs, mem)
# ---------------------------------------------------------------------------


def _unhandled(message: str) -> Run:
    """``run`` for an instruction no binder knows: it raises when run,
    never when bound."""

    def run(regs, mem):
        raise ExecutionError(message)
    return run


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
    OpClass.ALU: _bind_scalar,
    OpClass.VALU_OP: _bind_valu,
    OpClass.BRANCH: _bind_branch,
    OpClass.LOAD: _bind_scalar,
    OpClass.STORE: _bind_scalar,
    OpClass.AMO: _bind_scalar,
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
    :class:`~repro.isa.assembler.Program`, bound once and memoized on it
    (the point engine's lane walk steps through it).

    The latency stays in cycles: one program runs at several NDP clocks
    (the frequency sweep), and each sub-core multiplies by its own period.
    """
    code = getattr(program, "_decoded", None)
    if code is None:
        code = program._decoded = tuple(
            (bind(inst), FU_COLUMN[inst.unit], inst.latency_cycles)
            for inst in program.instructions)
    return code
