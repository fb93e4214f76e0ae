"""Two-pass assembler for the M2NDP RISC-V/RVV subset.

Since no production RISC-V+RVV compiler targets M2NDP yet, the paper's
kernels were written in assembly (§IV-B); ours are too.  The assembler
turns text like Fig 8's reduction kernel into :class:`Program` objects:

.. code-block:: text

    .init
        li   x3, 0x10000000
        sd   x0, 0(x3)
    .body
        vle64.v    v2, (x1)
        vmv.v.i    v1, 0
        vredsum.vs v3, v2, v1
        vmv.x.s    x4, v3
        li         x3, 0x10000000
        amoadd.d   x4, x4, (x3)
        ret
    .final
        li   x3, 0x10000000
        ld   x4, 0(x3)
        ld   x5, 8(x3)
        amoadd.d x4, x4, (x5)
        ret

Sections: ``.init`` (one µthread per slot, runs once per kernel launch),
``.body`` (one µthread per pool-region slice; may repeat for multi-phase
kernels), ``.final`` (post-processing).  A bare program with no directives
is treated as a single body.

Comments start with ``//``, ``#`` or ``;``.  Labels end with ``:``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import AssemblerError
from repro.isa.encoding import Instruction, OPCODES
from repro.isa.registers import RegisterUsage

_ABI_X = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
    **{f"a{i}": 10 + i for i in range(8)},
    **{f"s{i}": 16 + i for i in range(2, 12)},
    **{f"t{i}": 25 + i for i in range(3, 7)},
}

_ABI_F = {
    **{f"ft{i}": i for i in range(8)},
    **{f"fa{i}": 10 + i for i in range(8)},
    **{f"fs{i}": 8 + i for i in range(2)},
}

_REG_RE = re.compile(r"^(x|f|v)(\d+)$")
_MEM_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))?\(([a-z]+\d*)\)$")
_EW_RE = re.compile(r"^e(8|16|32|64)$")
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


@dataclass
class Operand:
    kind: str                    # "reg" | "mem" | "imm" | "ew" | "label"
    bank: str | None = None      # "x" | "f" | "v" for registers
    index: int | None = None
    imm: int | None = None
    offset: int = 0
    base: int | None = None      # base register index for mem operands
    label: str | None = None


def _parse_int(token: str) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal {token!r}") from None


def parse_operand(token: str) -> Operand:
    """Classify one operand token."""
    token = token.strip()
    match = _REG_RE.match(token)
    if match:
        bank, idx = match.group(1), int(match.group(2))
        if idx >= 32:
            raise AssemblerError(f"register index out of range: {token}")
        return Operand("reg", bank=bank, index=idx)
    if token in _ABI_X:
        return Operand("reg", bank="x", index=_ABI_X[token])
    if token in _ABI_F:
        return Operand("reg", bank="f", index=_ABI_F[token])
    match = _MEM_RE.match(token)
    if match:
        offset = _parse_int(match.group(1)) if match.group(1) else 0
        base = parse_operand(match.group(2))
        if base.kind != "reg" or base.bank != "x":
            raise AssemblerError(f"memory base must be an x register: {token}")
        return Operand("mem", offset=offset, base=base.index)
    match = _EW_RE.match(token)
    if match:
        return Operand("ew", imm=int(match.group(1)))
    if re.match(r"^-?(0x[0-9a-fA-F]+|\d+)$", token):
        return Operand("imm", imm=_parse_int(token))
    if _LABEL_RE.match(token):
        return Operand("label", label=token)
    raise AssemblerError(f"cannot parse operand {token!r}")


@dataclass
class Program:
    """A fully assembled instruction sequence (one kernel section)."""

    instructions: list[Instruction]
    usage: RegisterUsage
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class KernelProgram:
    """A complete NDP kernel: initializer, bodies, finalizer (§III-G)."""

    bodies: list[Program]
    initializer: Program | None = None
    finalizer: Program | None = None
    name: str = "kernel"

    @property
    def usage(self) -> RegisterUsage:
        merged = RegisterUsage()
        for section in self.sections():
            merged = merged.merge(section.usage)
        return merged

    def sections(self) -> list[Program]:
        out: list[Program] = []
        if self.initializer is not None:
            out.append(self.initializer)
        out.extend(self.bodies)
        if self.finalizer is not None:
            out.append(self.finalizer)
        return out

    @property
    def phased(self) -> bool:
        """More than one phase (an initializer, a finalizer or several
        bodies): state crosses a barrier in the per-unit scratchpad."""
        return (self.initializer is not None or self.finalizer is not None
                or len(self.bodies) != 1)

    @property
    def static_instruction_count(self) -> int:
        return sum(len(s) for s in self.sections())


_COMMENT_RE = re.compile(r"(//|#|;).*$")


def _strip_line(line: str) -> str:
    return _COMMENT_RE.sub("", line).strip()


def _split_operands(rest: str) -> list[str]:
    """Split an operand list on commas (parens never nest in this ISA)."""
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


class _SectionBuilder:
    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[tuple[int, str]] = []


def _assemble_section(builder: _SectionBuilder) -> Program:
    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    pending: list[tuple[int, str, int, str]] = []  # (inst idx, label, line no, line)
    usage = RegisterUsage()

    for line_no, line in builder.lines:
        # Peel off any leading labels.
        while True:
            match = re.match(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*:\s*(.*)$", line)
            if not match:
                break
            label = match.group(1)
            if label in labels:
                raise AssemblerError(f"duplicate label {label!r}", line_no, line)
            labels[label] = len(instructions)
            line = match.group(2).strip()
        if not line:
            continue

        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        spec = OPCODES.get(mnemonic)
        if spec is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no, line)

        operands = [parse_operand(tok) for tok in _split_operands(rest)]
        inst = _build_instruction(mnemonic, spec, operands, line_no, line)
        if inst.label is not None:
            pending.append((len(instructions), inst.label, line_no, line))
        _account_usage(usage, mnemonic, operands)
        instructions.append(inst)

    for idx, label, line_no, line in pending:
        if label not in labels:
            raise AssemblerError(f"undefined label {label!r}", line_no, line)
        instructions[idx].target = labels[label]

    return Program(instructions=instructions, usage=usage,
                   name=builder.name)


def _expect(condition: bool, message: str, line_no: int, line: str) -> None:
    if not condition:
        raise AssemblerError(message, line_no, line)


def _build_instruction(mnemonic: str, spec, ops: list[Operand],
                       line_no: int, line: str) -> Instruction:
    inst = Instruction(
        mnemonic=mnemonic,
        op_class=spec.op_class,
        unit=spec.unit,
        latency_cycles=spec.latency,
        size=spec.size,
    )
    fmt = spec.fmt
    if fmt == "-":
        _expect(not ops, f"{mnemonic} takes no operands", line_no, line)
        return inst

    expected_len = {
        "rab": 3, "rai": 3, "ri": 2, "ra": 2, "rabc": 4, "rm": 2, "am": 2,
        "ram": 3, "abl": 3, "al": 2, "l": 1, "rae": 3, "vm": 2, "vmv": 3,
        "vab": 3, "vax": 3, "vaf": 3, "vai": 3, "vi": 2, "vx": 2, "vf": 2,
        "va": 2, "v": 1,
    }[fmt]
    _expect(len(ops) == expected_len,
            f"{mnemonic} expects {expected_len} operands, got {len(ops)}",
            line_no, line)

    def reg(op: Operand) -> int:
        _expect(op.kind == "reg", f"{mnemonic}: expected register", line_no, line)
        return op.index  # type: ignore[return-value]

    def imm(op: Operand) -> int:
        _expect(op.kind == "imm", f"{mnemonic}: expected immediate", line_no, line)
        return op.imm  # type: ignore[return-value]

    def mem(op: Operand) -> tuple[int, int]:
        _expect(op.kind == "mem", f"{mnemonic}: expected off(reg)", line_no, line)
        return op.base, op.offset  # type: ignore[return-value]

    def label(op: Operand) -> str:
        _expect(op.kind == "label", f"{mnemonic}: expected label", line_no, line)
        return op.label  # type: ignore[return-value]

    if fmt == "rab":
        inst.rd, inst.rs1, inst.rs2 = reg(ops[0]), reg(ops[1]), reg(ops[2])
    elif fmt == "rabc":
        inst.rd, inst.rs1, inst.rs2, inst.rs3 = (
            reg(ops[0]), reg(ops[1]), reg(ops[2]), reg(ops[3])
        )
    elif fmt == "rai":
        inst.rd, inst.rs1, inst.imm = reg(ops[0]), reg(ops[1]), imm(ops[2])
    elif fmt == "ri":
        inst.rd, inst.imm = reg(ops[0]), imm(ops[1])
    elif fmt == "ra":
        inst.rd, inst.rs1 = reg(ops[0]), reg(ops[1])
    elif fmt == "rm":
        inst.rd = reg(ops[0])
        inst.rs1, inst.imm = mem(ops[1])
    elif fmt == "am":
        inst.rs2 = reg(ops[0])
        inst.rs1, inst.imm = mem(ops[1])
    elif fmt == "ram":
        inst.rd = reg(ops[0])
        inst.rs2 = reg(ops[1])
        inst.rs1, inst.imm = mem(ops[2])
    elif fmt == "abl":
        inst.rs1, inst.rs2, inst.label = reg(ops[0]), reg(ops[1]), label(ops[2])
    elif fmt == "al":
        inst.rs1, inst.label = reg(ops[0]), label(ops[1])
    elif fmt == "l":
        inst.label = label(ops[0])
    elif fmt == "rae":
        inst.rd, inst.rs1 = reg(ops[0]), reg(ops[1])
        _expect(ops[2].kind == "ew", f"{mnemonic}: expected eN width", line_no, line)
        inst.imm = ops[2].imm
    elif fmt == "vm":
        inst.rd = reg(ops[0])
        inst.rs1, inst.imm = mem(ops[1])
    elif fmt == "vmv":
        inst.rd = reg(ops[0])
        inst.rs1, _off = mem(ops[1])
        inst.rs2 = reg(ops[2])
        inst.imm = _off
    elif fmt == "vab":
        inst.rd, inst.rs1, inst.rs2 = reg(ops[0]), reg(ops[1]), reg(ops[2])
    elif fmt in ("vax", "vaf"):
        inst.rd, inst.rs1, inst.rs2 = reg(ops[0]), reg(ops[1]), reg(ops[2])
    elif fmt == "vai":
        inst.rd, inst.rs1, inst.imm = reg(ops[0]), reg(ops[1]), imm(ops[2])
    elif fmt == "vi":
        inst.rd, inst.imm = reg(ops[0]), imm(ops[1])
    elif fmt in ("vx", "vf"):
        inst.rd, inst.rs1 = reg(ops[0]), reg(ops[1])
    elif fmt == "va":
        inst.rd, inst.rs1 = reg(ops[0]), reg(ops[1])
    elif fmt == "v":
        inst.rd = reg(ops[0])
    return inst


def _account_usage(usage: RegisterUsage, mnemonic: str, ops: list[Operand]) -> None:
    for op in ops:
        if op.kind == "reg":
            if op.bank == "x":
                usage.int_regs = max(usage.int_regs, op.index + 1)
            elif op.bank == "f":
                usage.float_regs = max(usage.float_regs, op.index + 1)
            elif op.bank == "v":
                usage.vector_regs = max(usage.vector_regs, op.index + 1)
        elif op.kind == "mem" and op.base is not None:
            usage.int_regs = max(usage.int_regs, op.base + 1)


_SECTION_ALIASES = {
    ".init": "init",
    ".initializer": "init",
    ".body": "body",
    ".kernel": "body",
    ".final": "final",
    ".finalizer": "final",
}


def assemble_kernel(text: str, name: str = "kernel") -> KernelProgram:
    """Assemble a kernel with optional .init / .body+ / .final sections."""
    sections: list[_SectionBuilder] = []
    current: _SectionBuilder | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_line(raw)
        if not line:
            continue
        token = line.split()[0].lower()
        if token.startswith("."):
            kind = _SECTION_ALIASES.get(token)
            if kind is None:
                raise AssemblerError(f"unknown directive {token!r}", line_no, raw)
            current = _SectionBuilder(kind)
            sections.append(current)
            continue
        if current is None:
            current = _SectionBuilder("body")
            sections.append(current)
        current.lines.append((line_no, line))

    initializer: Program | None = None
    finalizer: Program | None = None
    bodies: list[Program] = []
    for idx, builder in enumerate(sections):
        program = _assemble_section(builder)
        program.name = f"{name}.{builder.name}{idx}"
        if builder.name == "init":
            if initializer is not None:
                raise AssemblerError("multiple .init sections")
            initializer = program
        elif builder.name == "final":
            if finalizer is not None:
                raise AssemblerError("multiple .final sections")
            finalizer = program
        else:
            bodies.append(program)
    if not bodies:
        raise AssemblerError("kernel has no body section")
    return KernelProgram(
        bodies=bodies, initializer=initializer, finalizer=finalizer, name=name
    )
