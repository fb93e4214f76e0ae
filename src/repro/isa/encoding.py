"""Instruction encoding: mnemonics, operand formats, functional units.

The NDP unit executes a modified RV64IMAFD+V subset (§III-D).  Each
mnemonic maps to an operand *format* (how the assembler parses it), a
*functional unit* (which Fig 7 pipe executes it) and a latency class in NDP
cycles.  The table is the single source of truth shared by the assembler,
the executor and the timing model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FUnit(enum.Enum):
    """Execution resources of one NDP sub-core (Fig 7)."""

    SALU = "scalar_alu"     # 2 per sub-core
    SSFU = "scalar_sfu"     # 1 per sub-core (mul/div, FP long ops)
    SLSU = "scalar_lsu"     # 1 per sub-core
    VALU = "vector_alu"     # 1 per sub-core, 256-bit
    VSFU = "vector_sfu"
    VLSU = "vector_lsu"


#: Issue-bank column of each functional unit (``repro.ndp.subcore``);
#: column 0 is the dispatch stage.
FU_COLUMN = {fu: column for column, fu in enumerate(FUnit, start=1)}


class OpClass(enum.Enum):
    """Semantic grouping the executor and timing model dispatch on."""

    ALU = "alu"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"
    AMO = "amo"
    VLOAD = "vload"
    VSTORE = "vstore"
    VGATHER = "vgather"
    VSCATTER = "vscatter"
    VAMO = "vamo"
    VALU_OP = "valu"
    VRED = "vred"
    VSET = "vset"
    FENCE = "fence"
    RET = "ret"


# Latency classes in NDP cycles (0.5 ns at 2 GHz).
LAT_SIMPLE = 1
LAT_MUL = 3
LAT_DIV = 12
LAT_FP = 4
LAT_FP_LONG = 16
LAT_VEC_INT = 2
LAT_VEC_FP = 4
LAT_VEC_RED = 4


@dataclass
class Instruction:
    """One decoded instruction.

    Register fields hold plain indices; their bank (x/f/v) is implied by
    the mnemonic.  ``target`` is a resolved instruction index for branches;
    ``imm`` doubles as the load/store displacement and the vsetvli SEW.
    """

    mnemonic: str
    op_class: OpClass
    unit: FUnit
    latency_cycles: int
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    rs3: int | None = None
    imm: int | None = None
    label: str | None = None
    target: int | None = None
    size: int = 0            # access bytes for scalar memory ops / sew for vector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = [
            f"{name}={val}"
            for name, val in (
                ("rd", self.rd), ("rs1", self.rs1), ("rs2", self.rs2),
                ("imm", self.imm), ("label", self.label),
            )
            if val is not None
        ]
        return f"<{self.mnemonic} {' '.join(ops)}>"


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    fmt: str                 # operand format string (see assembler)
    op_class: OpClass
    unit: FUnit
    latency: int
    size: int = 0


def _scalar_mem(fmt: str, op_class: OpClass, size: int) -> OpSpec:
    return OpSpec(fmt, op_class, FUnit.SLSU, LAT_SIMPLE, size)


def _valu(fmt: str, latency: int = LAT_VEC_INT) -> OpSpec:
    return OpSpec(fmt, OpClass.VALU_OP, FUnit.VALU, latency)


#: The full mnemonic table.  Formats:
#:   r=register dest, a/b/c=register sources, i=immediate, m=mem "off(reg)",
#:   l=label, e=element-width token (vsetvli), -=no operands.
#: Bank prefixes are resolved by the assembler from operand spelling.
OPCODES: dict[str, OpSpec] = {
    # -- scalar integer ALU ------------------------------------------------
    "add": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "addw": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "sub": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "addi": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "and": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "andi": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "or": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "ori": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "xor": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "xori": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "sll": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "slli": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "srl": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "srli": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "sra": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "srai": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "slt": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "sltu": OpSpec("rab", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "slti": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "sltiu": OpSpec("rai", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "lui": OpSpec("ri", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "li": OpSpec("ri", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "mv": OpSpec("ra", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "neg": OpSpec("ra", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "seqz": OpSpec("ra", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "snez": OpSpec("ra", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "mul": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_MUL),
    "mulw": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_MUL),
    "mulhu": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_MUL),
    "div": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_DIV),
    "divu": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_DIV),
    "rem": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_DIV),
    "remu": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_DIV),
    # -- scalar FP -----------------------------------------------------------
    "fadd.s": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fadd.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fsub.s": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fsub.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fmul.s": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fmul.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fdiv.s": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP_LONG),
    "fdiv.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP_LONG),
    "fsqrt.d": OpSpec("ra", OpClass.ALU, FUnit.SSFU, LAT_FP_LONG),
    "fmadd.d": OpSpec("rabc", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fmv.d": OpSpec("ra", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "fmv.x.d": OpSpec("ra", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "fmv.d.x": OpSpec("ra", OpClass.ALU, FUnit.SALU, LAT_SIMPLE),
    "fcvt.d.l": OpSpec("ra", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fcvt.s.l": OpSpec("ra", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fcvt.l.d": OpSpec("ra", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "flt.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fle.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "feq.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fmax.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    "fmin.d": OpSpec("rab", OpClass.ALU, FUnit.SSFU, LAT_FP),
    # -- scalar memory ---------------------------------------------------------
    "lb": _scalar_mem("rm", OpClass.LOAD, 1),
    "lbu": _scalar_mem("rm", OpClass.LOAD, 1),
    "lh": _scalar_mem("rm", OpClass.LOAD, 2),
    "lhu": _scalar_mem("rm", OpClass.LOAD, 2),
    "lw": _scalar_mem("rm", OpClass.LOAD, 4),
    "lwu": _scalar_mem("rm", OpClass.LOAD, 4),
    "ld": _scalar_mem("rm", OpClass.LOAD, 8),
    "flw": _scalar_mem("rm", OpClass.LOAD, 4),
    "fld": _scalar_mem("rm", OpClass.LOAD, 8),
    "sb": _scalar_mem("am", OpClass.STORE, 1),
    "sh": _scalar_mem("am", OpClass.STORE, 2),
    "sw": _scalar_mem("am", OpClass.STORE, 4),
    "sd": _scalar_mem("am", OpClass.STORE, 8),
    "fsw": _scalar_mem("am", OpClass.STORE, 4),
    "fsd": _scalar_mem("am", OpClass.STORE, 8),
    # -- atomics (global at L2, local in scratchpad) ------------------------------
    "amoadd.w": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 4),
    "amoadd.d": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 8),
    "amoswap.d": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 8),
    "amomax.d": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 8),
    "amomin.d": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 8),
    "amomin.w": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 4),
    "amoor.d": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 8),
    # "modified RISC-V" FP atomics for local reductions (paper §III-G notes a
    # vector-AMO extension; we provide the scalar-FP equivalent).
    "famoadd.s": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 4),
    "famoadd.d": OpSpec("ram", OpClass.AMO, FUnit.SLSU, LAT_SIMPLE, 8),
    # -- control flow -----------------------------------------------------------
    "beq": OpSpec("abl", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bne": OpSpec("abl", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "blt": OpSpec("abl", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bge": OpSpec("abl", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bltu": OpSpec("abl", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bgeu": OpSpec("abl", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "beqz": OpSpec("al", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bnez": OpSpec("al", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "blez": OpSpec("al", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bgez": OpSpec("al", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bltz": OpSpec("al", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "bgtz": OpSpec("al", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "j": OpSpec("l", OpClass.BRANCH, FUnit.SALU, LAT_SIMPLE),
    "ret": OpSpec("-", OpClass.RET, FUnit.SALU, LAT_SIMPLE),
    "fence": OpSpec("-", OpClass.FENCE, FUnit.SALU, LAT_SIMPLE),
    # -- vector config ------------------------------------------------------------
    "vsetvli": OpSpec("rae", OpClass.VSET, FUnit.VALU, LAT_SIMPLE),
    # -- vector memory (unit stride) ----------------------------------------------
    "vle8.v": OpSpec("vm", OpClass.VLOAD, FUnit.VLSU, LAT_SIMPLE, 1),
    "vle16.v": OpSpec("vm", OpClass.VLOAD, FUnit.VLSU, LAT_SIMPLE, 2),
    "vle32.v": OpSpec("vm", OpClass.VLOAD, FUnit.VLSU, LAT_SIMPLE, 4),
    "vle64.v": OpSpec("vm", OpClass.VLOAD, FUnit.VLSU, LAT_SIMPLE, 8),
    "vse8.v": OpSpec("vm", OpClass.VSTORE, FUnit.VLSU, LAT_SIMPLE, 1),
    "vse16.v": OpSpec("vm", OpClass.VSTORE, FUnit.VLSU, LAT_SIMPLE, 2),
    "vse32.v": OpSpec("vm", OpClass.VSTORE, FUnit.VLSU, LAT_SIMPLE, 4),
    "vse64.v": OpSpec("vm", OpClass.VSTORE, FUnit.VLSU, LAT_SIMPLE, 8),
    # -- vector indexed gather/scatter ----------------------------------------------
    "vluxei32.v": OpSpec("vmv", OpClass.VGATHER, FUnit.VLSU, LAT_SIMPLE, 4),
    "vluxei64.v": OpSpec("vmv", OpClass.VGATHER, FUnit.VLSU, LAT_SIMPLE, 8),
    "vsuxei64.v": OpSpec("vmv", OpClass.VSCATTER, FUnit.VLSU, LAT_SIMPLE, 8),
    # -- vector AMO (the RVV v-amo extension the paper cites [12]): indexed
    # atomic add of vs3 elements at base + vs2 byte offsets.
    "vamoadde32.v": OpSpec("vmv", OpClass.VAMO, FUnit.VLSU, LAT_SIMPLE, 4),
    "vamoadde64.v": OpSpec("vmv", OpClass.VAMO, FUnit.VLSU, LAT_SIMPLE, 8),
    # -- vector integer ALU -------------------------------------------------------------
    "vadd.vv": _valu("vab"),
    "vadd.vx": _valu("vax"),
    "vadd.vi": _valu("vai"),
    "vsub.vv": _valu("vab"),
    "vmul.vv": _valu("vab", LAT_MUL),
    "vmul.vx": _valu("vax", LAT_MUL),
    "vsll.vi": _valu("vai"),
    "vsrl.vi": _valu("vai"),
    "vand.vx": _valu("vax"),
    "vmacc.vv": _valu("vab", LAT_MUL),
    "vmv.v.i": _valu("vi"),
    "vmv.v.x": _valu("vx"),
    "vmv.v.v": _valu("va"),
    "vid.v": _valu("v"),
    # -- vector FP ----------------------------------------------------------------------
    "vfadd.vv": _valu("vab", LAT_VEC_FP),
    "vfadd.vf": _valu("vaf", LAT_VEC_FP),
    "vfsub.vv": _valu("vab", LAT_VEC_FP),
    "vfmul.vv": _valu("vab", LAT_VEC_FP),
    "vfmul.vf": _valu("vaf", LAT_VEC_FP),
    "vfmacc.vv": _valu("vab", LAT_VEC_FP),
    "vfmacc.vf": _valu("vaf", LAT_VEC_FP),
    "vfmv.v.f": _valu("vf", LAT_VEC_FP),
    # -- reductions (vd gets scalar result in element 0) -----------------------------------
    "vredsum.vs": OpSpec("vab", OpClass.VRED, FUnit.VALU, LAT_VEC_RED),
    "vredmax.vs": OpSpec("vab", OpClass.VRED, FUnit.VALU, LAT_VEC_RED),
    "vredmin.vs": OpSpec("vab", OpClass.VRED, FUnit.VALU, LAT_VEC_RED),
    "vfredusum.vs": OpSpec("vab", OpClass.VRED, FUnit.VALU, LAT_VEC_RED),
    "vfredmax.vs": OpSpec("vab", OpClass.VRED, FUnit.VALU, LAT_VEC_RED),
    # -- vector compares (mask result) ------------------------------------------------------
    "vmseq.vx": _valu("vax"),
    "vmsne.vx": _valu("vax"),
    "vmslt.vx": _valu("vax"),
    "vmsle.vx": _valu("vax"),
    "vmsgt.vx": _valu("vax"),
    "vmsge.vx": _valu("vax"),
    "vmflt.vf": _valu("vaf", LAT_VEC_FP),
    "vmfle.vf": _valu("vaf", LAT_VEC_FP),
    "vmfgt.vf": _valu("vaf", LAT_VEC_FP),
    "vmfge.vf": _valu("vaf", LAT_VEC_FP),
    "vmand.mm": _valu("vab"),
    "vmor.mm": _valu("vab"),
    # -- mask/select -------------------------------------------------------------------------
    "vmerge.vxm": _valu("vax"),     # vd[i] = mask(v0)[i] ? rs : va[i]
    "vmerge.vim": _valu("vai"),
    # -- scalar <-> vector moves ----------------------------------------------------------------
    "vmv.x.s": OpSpec("ra", OpClass.VALU_OP, FUnit.VALU, LAT_SIMPLE),
    "vmv.s.x": OpSpec("vx", OpClass.VALU_OP, FUnit.VALU, LAT_SIMPLE),
    "vfmv.f.s": OpSpec("ra", OpClass.VALU_OP, FUnit.VALU, LAT_SIMPLE),
}
