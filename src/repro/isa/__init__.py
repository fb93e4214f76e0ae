"""Modified RISC-V RV64IMAFD+V ISA: assembler, registers, executor."""

from repro.isa.assembler import (
    KernelProgram,
    Program,
    assemble_kernel,
    parse_operand,
)
from repro.isa.encoding import FUnit, Instruction, OpClass, OPCODES, OpSpec
from repro.isa.executor import ExecResult, MemAccess, MemoryInterface
from repro.isa.registers import (
    RegisterUsage,
    UThreadRegisters,
    to_signed64,
    to_unsigned64,
)
from repro.isa.vector import VLEN_BITS, vlmax

__all__ = [
    "ExecResult",
    "FUnit",
    "Instruction",
    "KernelProgram",
    "MemAccess",
    "MemoryInterface",
    "OPCODES",
    "OpClass",
    "OpSpec",
    "Program",
    "RegisterUsage",
    "UThreadRegisters",
    "VLEN_BITS",
    "assemble_kernel",
    "parse_operand",
    "to_signed64",
    "to_unsigned64",
    "vlmax",
]
