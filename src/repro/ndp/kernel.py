"""NDP kernel descriptors and launch instances (Table II state).

A *registered kernel* (:class:`KernelDescriptor`) is code plus resource
requirements: scratchpad bytes and per-µthread register counts, exactly the
arguments of ``ndpRegisterKernel``.  A *kernel instance*
(:class:`KernelInstance`) is one launch: a µthread pool region, argument
bytes, synchronicity, and a lifecycle status that ``ndpPollKernelStatus``
reports (0 finished / 1 running / 2 pending).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import LaunchError
from repro.isa.assembler import KernelProgram
from repro.isa.registers import RegisterUsage

#: µthreads are mapped to pool-region slices of the DRAM access granularity
#: (32 B for LPDDR5), §III-D advantage A4.
DEFAULT_UTHREAD_STRIDE = 32

#: Kernel arguments are copied into each NDP unit's scratchpad at this
#: offset when the kernel launches (§III-G).
ARGS_SPAD_OFFSET = 0


class KernelStatus(enum.Enum):
    """Return values of ndpPollKernelStatus (Table II)."""

    FINISHED = 0
    RUNNING = 1
    PENDING = 2


@dataclass
class KernelDescriptor:
    """A kernel registered with the NDP controller."""

    kernel_id: int
    program: KernelProgram
    scratchpad_bytes: int
    usage: RegisterUsage
    name: str = ""

    @classmethod
    def from_program(
        cls,
        kernel_id: int,
        program: KernelProgram,
        scratchpad_bytes: int = 0,
        usage: RegisterUsage | None = None,
    ) -> "KernelDescriptor":
        """Build a descriptor, deriving register usage from the code when the
        caller (compiler) does not specify it."""
        derived = program.usage
        if usage is not None:
            if (usage.int_regs < derived.int_regs
                    or usage.float_regs < derived.float_regs
                    or usage.vector_regs < derived.vector_regs):
                raise LaunchError(
                    f"declared registers {usage} below code requirements {derived}"
                )
            derived = usage
        return cls(
            kernel_id=kernel_id,
            program=program,
            scratchpad_bytes=scratchpad_bytes,
            usage=derived,
            name=program.name,
        )

    def rf_bytes_per_uthread(self, vector_bytes: int) -> int:
        return self.usage.bytes_required(vector_bytes)


@dataclass
class KernelInstance:
    """One launched kernel: pool region, args, and lifecycle."""

    instance_id: int
    kernel: KernelDescriptor
    pool_base: int
    pool_bound: int
    args: bytes = b""
    synchronous: bool = False
    asid: int = 0
    uthread_stride: int = DEFAULT_UTHREAD_STRIDE
    #: Added to every body µthread's ``x2`` offset.  A plain launch leaves
    #: this at 0 (x2 is the offset from ``pool_base``); a cluster sub-launch
    #: covering [pool_base, pool_bound) of a larger logical pool passes the
    #: sub-range's offset within that pool so kernels indexing companion
    #: arrays with x2 (e.g. VectorAdd's B/C) stay correct when split.
    offset_bias: int = 0
    #: Hardware partition index this launch is bound to: the
    #: ``LAUNCH_FLAG_PARTITION`` extension word, or the default (first)
    #: partition for an untagged launch.
    partition: int = 0
    status: KernelStatus = KernelStatus.PENDING
    launch_ns: float = 0.0
    start_ns: float | None = None
    complete_ns: float | None = None
    # progress accounting filled by the µthread generator
    uthreads_total: int = 0
    uthreads_done: int = 0
    instructions: int = 0
    #: Per-µthread completion times in pool order, filled by the point
    #: engine (``exec/point.py``), which times each lane on its own; None
    #: from every backend that only times the launch as a whole.
    lane_complete_ns: list[float] | None = None

    def __post_init__(self) -> None:
        if self.pool_bound < self.pool_base:
            raise LaunchError(
                f"pool region bound {self.pool_bound:#x} below base "
                f"{self.pool_base:#x}"
            )
        if self.uthread_stride <= 0:
            raise LaunchError(f"bad µthread stride {self.uthread_stride}")

    @property
    def num_body_uthreads(self) -> int:
        """µthreads per kernel body: one per stride-sized pool slice."""
        span = self.pool_bound - self.pool_base
        return (span + self.uthread_stride - 1) // self.uthread_stride

    @property
    def runtime_ns(self) -> float:
        if self.start_ns is None or self.complete_ns is None:
            raise LaunchError(f"kernel instance {self.instance_id} not finished")
        return self.complete_ns - self.start_ns

    @property
    def total_latency_ns(self) -> float:
        """Launch-to-completion, including queueing delay."""
        if self.complete_ns is None:
            raise LaunchError(f"kernel instance {self.instance_id} not finished")
        return self.complete_ns - self.launch_ns
