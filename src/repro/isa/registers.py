"""µthread register state.

A µthread carries only the architectural state its kernel declared at
registration time (§III-D): a handful of integer, float and vector
registers plus a PC and the vl/sew vector configuration.  The register
*indices* still follow RISC-V naming (x0..x31, f0..., v0...) so kernels read
naturally; the occupancy manager separately accounts the declared counts
against the 48 KB physical register file.

Spawn-time ABI (§III-E): ``x1`` holds the µthread's mapped address in the
pool region and ``x2`` the offset from the pool base.  ``x0`` is hardwired
to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError

NUM_X_REGS = 32
NUM_F_REGS = 32
NUM_V_REGS = 32

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def to_signed64(value: int) -> int:
    """Wrap an integer to two's-complement signed 64-bit."""
    value &= _U64_MASK
    return value - (1 << 64) if value >= (1 << 63) else value


def to_unsigned64(value: int) -> int:
    """Interpret an integer as unsigned 64-bit."""
    return value & _U64_MASK


@dataclass
class RegisterUsage:
    """Architectural registers a kernel actually touches.

    Computed by the assembler; used for registration defaults (Table II's
    numIntRegs/numFloatRegs/numVectorRegs) and the register-file
    allocation in :mod:`repro.ndp.occupancy`.
    """

    int_regs: int = 0
    float_regs: int = 0
    vector_regs: int = 0

    def merge(self, other: "RegisterUsage") -> "RegisterUsage":
        return RegisterUsage(
            int_regs=max(self.int_regs, other.int_regs),
            float_regs=max(self.float_regs, other.float_regs),
            vector_regs=max(self.vector_regs, other.vector_regs),
        )

    def bytes_required(self, vector_bytes: int) -> int:
        """Physical register file bytes for one µthread of this kernel."""
        return 8 * self.int_regs + 8 * self.float_regs + vector_bytes * self.vector_regs


#: Shared empty-register sentinel.  INVARIANT: executor handlers never
#: mutate a vector register's value list in place — they always build a new
#: list and assign it via write_v — so sharing one empty list is safe and
#: saves 32 allocations per spawned µthread.
_EMPTY_VREG: list = []


class UThreadRegisters:
    """Architectural register state of one µthread."""

    __slots__ = ("x", "f", "v", "vl", "sew")

    def __init__(self):
        self.x: list[int] = [0] * NUM_X_REGS
        self.f: list[float] = [0.0] * NUM_F_REGS
        self.v: list[list] = [_EMPTY_VREG] * NUM_V_REGS
        # Vector config: vl=None means "VLMAX for the op's element width".
        self.vl: int | None = None
        self.sew: int = 64

    def write_x(self, idx: int, value: int) -> None:
        if idx != 0:
            self.x[idx] = to_signed64(value)

    def write_f(self, idx: int, value: float) -> None:
        self.f[idx] = float(value)

    def write_v(self, idx: int, values: list) -> None:
        self.v[idx] = values

    def effective_vl(self, vlmax: int) -> int:
        """Elements processed by a vector op with the given VLMAX."""
        if self.vl is None:
            return vlmax
        if self.vl < 0:
            raise ExecutionError(f"negative vl {self.vl}")
        return min(self.vl, vlmax)
