"""µthread generation: phases, pool-region mapping, unit interleaving.

A :class:`KernelExecution` drives one kernel instance through its phases
(§III-G): the *initializer* spawns one µthread per µthread slot (x1 = NDP
unit index, x2 = slot-local ID), each *body* spawns one µthread per
stride-sized slice of the pool region (x1 = mapped address, x2 = offset,
§III-E), with a barrier between bodies, and the *finalizer* mirrors the
initializer.  Body µthreads are interleaved across NDP units at the memory
access granularity to load-balance fine-grained kernels (§III-E).

Kernel arguments are copied into every unit's scratchpad when the instance
starts; µthreads receive the argument block's scratchpad address in ``x3``
(the hardware analogue: the µthread generator initializes a third register
with the kernel's scratchpad argument base).

Cursors are arithmetic, not materialized lists, so launching a kernel with
hundreds of thousands of µthreads costs O(units) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError
from repro.isa.assembler import Program
from repro.mem.scratchpad import SCRATCHPAD_VBASE
from repro.ndp.kernel import KernelInstance, KernelStatus
from repro.ndp.uthread import Phase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ndp.device import DevicePartition

#: Scratchpad bytes reserved per concurrent kernel instance for arguments.
ARG_SLOT_BYTES = 64

#: µthread creation cost ("can be done quickly as in GPUs", §III-D).
SPAWN_LATENCY_NS = 1.0


@dataclass
class ThreadDescriptor:
    """What the generator needs to spawn one µthread."""

    program: Program
    phase: Phase
    unit_index: int
    mapped_addr: int
    offset: int
    body_index: int = 0


class _PhasePlan:
    """Arithmetic per-unit cursors over the µthreads of one phase."""

    def __init__(self, phase: Phase, program: Program, body_index: int,
                 num_units: int, slots_per_unit: int,
                 instance: KernelInstance) -> None:
        self.phase = phase
        self.program = program
        self.body_index = body_index
        self._instance = instance
        self._num_units = num_units
        self._slots_per_unit = slots_per_unit
        if phase is Phase.BODY:
            self.total = instance.num_body_uthreads
        else:
            self.total = num_units * slots_per_unit
        # next thread ordinal to spawn, per unit
        self._next_ordinal = [0] * num_units

    def _unit_thread_count(self, unit: int) -> int:
        """Total µthreads this phase assigns to ``unit``."""
        if self.phase is Phase.BODY:
            # global indices unit, unit + U, unit + 2U, ...
            if unit >= self.total:
                full = 0
            else:
                full = (self.total - unit - 1) // self._num_units + 1
            return full
        return self._slots_per_unit if self.total else 0

    def has_pending(self, unit: int) -> bool:
        return self._next_ordinal[unit] < self._unit_thread_count(unit)

    def pending_any(self) -> bool:
        return any(
            self.has_pending(u) for u in range(self._num_units)
        )

    def take(self, unit: int) -> ThreadDescriptor:
        ordinal = self._next_ordinal[unit]
        self._next_ordinal[unit] += 1
        if self.phase is Phase.BODY:
            global_index = ordinal * self._num_units + unit
            stride = self._instance.uthread_stride
            mapped = self._instance.pool_base + global_index * stride
            offset = self._instance.offset_bias + global_index * stride
        else:
            mapped = unit               # x1 = NDP unit index
            offset = ordinal            # x2 = slot-local unique ID
        return ThreadDescriptor(
            program=self.program,
            phase=self.phase,
            unit_index=unit,
            mapped_addr=mapped,
            offset=offset,
            body_index=self.body_index,
        )


class KernelExecution:
    """Orchestrates one kernel instance across the device's NDP units."""

    def __init__(
        self,
        instance: KernelInstance,
        num_units: int,
        slots_per_unit: int,
        vector_bytes: int,
        scratchpad_bytes: int,
        max_concurrent_kernels: int,
        on_complete: Callable[["KernelExecution", float], None],
        unit_base: int,
        partition: DevicePartition,
    ) -> None:
        self.instance = instance
        self.num_units = num_units
        self.slots_per_unit = slots_per_unit
        #: First *device* unit this execution may run on.  A launch bound
        #: to a hardware partition sees a contiguous window of
        #: ``num_units`` units starting here and behaves exactly like a
        #: launch on a smaller device: plan-local unit indices (what x1
        #: and the interleave math use) run 0..num_units-1 while the
        #: spawn/fill machinery addresses physical units by global index.
        self.unit_base = unit_base
        #: The DevicePartition the launch runs in, for backends that
        #: charge the memory system directly.
        self.partition = partition
        self.on_complete = on_complete
        self.rf_bytes = instance.kernel.rf_bytes_per_uthread(vector_bytes)
        self.outstanding = 0
        self._completed = False

        arg_slot = instance.instance_id % max_concurrent_kernels
        #: scratchpad vaddr of this instance's argument block (goes to x3)
        self.args_vaddr = (
            SCRATCHPAD_VBASE + scratchpad_bytes - (arg_slot + 1) * ARG_SLOT_BYTES
        )

        program = instance.kernel.program
        #: (phase, section, body index) in launch order: initializer,
        #: bodies, finalizer.
        self.phases: list[tuple[Phase, Program, int]] = []
        if program.initializer is not None:
            self.phases.append((Phase.INITIALIZER, program.initializer, 0))
        for body_index, body in enumerate(program.bodies):
            self.phases.append((Phase.BODY, body, body_index))
        if program.finalizer is not None:
            self.phases.append((Phase.FINALIZER, program.finalizer, 0))
        self._phase_idx = -1
        self._plan: _PhasePlan | None = None

    # ------------------------------------------------------------------

    def start(self, now_ns: float) -> None:
        self.instance.status = KernelStatus.RUNNING
        self.instance.start_ns = now_ns
        self._advance_phase()
        # a body spawns a µthread per pool slice, the other phases one
        # per µthread slot (the totals of :class:`_PhasePlan`)
        bodies = len(self.instance.kernel.program.bodies)
        self.instance.uthreads_total = (
            bodies * self.instance.num_body_uthreads
            + (len(self.phases) - bodies) * self.num_units
            * self.slots_per_unit)

    def _advance_phase(self) -> bool:
        """Move to the next phase; returns False when the kernel is done."""
        self._phase_idx += 1
        if self._phase_idx >= len(self.phases):
            self._plan = None
            return False
        phase, program, body_index = self.phases[self._phase_idx]
        self._plan = _PhasePlan(
            phase, program, body_index, self.num_units, self.slots_per_unit,
            self.instance,
        )
        return True

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._completed

    def has_pending_for_unit(self, unit: int) -> bool:
        """``unit`` is a *global* device unit index."""
        local = unit - self.unit_base
        if not 0 <= local < self.num_units:
            return False
        return self._plan is not None and self._plan.has_pending(local)

    def take_for_unit(self, unit: int) -> ThreadDescriptor:
        if self._plan is None:
            raise ExecutionError(
                f"unit {unit} asked for a uthread before the launch "
                "plan was built"
            )
        descriptor = self._plan.take(unit - self.unit_base)
        # The plan thinks in partition-local units (x1 / interleave math);
        # the descriptor must name the physical unit that runs the thread.
        descriptor.unit_index = unit
        return descriptor

    def consume_plan(self) -> None:
        """Drop every pending µthread without completing the execution.

        Called by backends that execute the whole launch out of band (the
        batched fast path): once ownership is taken, the per-µthread fill
        machinery must see nothing pending, or a concurrent interpreter
        refill would execute the launch a second time.
        """
        self._phase_idx = len(self.phases)
        self._plan = None

    def finish_now(self, now_ns: float) -> None:
        """Mark the whole execution complete in one step.

        Used by analytic backends (``repro.exec.batched``) that execute the
        launch outside the per-µthread spawn/drain machinery; mirrors the
        final transition of :meth:`on_thread_done`.
        """
        self.consume_plan()
        self.outstanding = 0
        if not self._completed:
            self._completed = True
            self.instance.status = KernelStatus.FINISHED
            self.instance.complete_ns = now_ns
            self.on_complete(self, now_ns)

    def on_thread_done(self, now_ns: float) -> bool:
        """Account a finished µthread.  Returns True when a *phase barrier*
        was crossed (caller must refill all units) and kernel completion is
        signalled through ``on_complete``."""
        self.outstanding -= 1
        self.instance.uthreads_done += 1
        if self.outstanding > 0:
            return False
        if self._plan is not None and self._plan.pending_any():
            return False
        # phase drained
        if self._advance_phase():
            return True
        if not self._completed:
            self._completed = True
            self.instance.status = KernelStatus.FINISHED
            self.instance.complete_ns = now_ns
            self.on_complete(self, now_ns)
        return False
