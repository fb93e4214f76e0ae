"""The µthread: a lightweight hardware-managed thread (§III-D).

Besides registers and a PC, a µthread knows its kernel instance, which
sub-core slot it occupies, and its spawn-time identity: ``x1`` = the pool
address it is mapped to, ``x2`` = the offset from the pool base (or a plain
ID for initializer/finalizer threads).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.assembler import Program
from repro.isa.registers import UThreadRegisters
from repro.ndp.kernel import KernelInstance
from repro.ndp.occupancy import SlotAllocation


class Phase(enum.Enum):
    """Which kernel section a µthread executes (§III-G)."""

    INITIALIZER = "initializer"
    BODY = "body"
    FINALIZER = "finalizer"


@dataclass
class UThread:
    """One executing µthread."""

    instance: KernelInstance
    program: Program
    phase: Phase
    unit_index: int
    allocation: SlotAllocation
    mapped_addr: int
    offset: int
    args_vaddr: int = 0
    regs: UThreadRegisters = field(default_factory=UThreadRegisters)
    pc: int = 0
    ready_ns: float = 0.0
    instructions_executed: int = 0
    body_index: int = 0

    def __post_init__(self) -> None:
        # Spawn-time ABI (§III-E): mapped address in x1, offset in x2, and
        # the instance's scratchpad argument block in x3 (§III-G).
        self.regs.write_x(1, self.mapped_addr)
        self.regs.write_x(2, self.offset)
        self.regs.write_x(3, self.args_vaddr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<µthread k{self.instance.instance_id} {self.phase.value} "
            f"u{self.unit_index} sc{self.allocation.subcore_index}"
            f"s{self.allocation.slot_index} pc={self.pc}>"
        )
