"""The reference per-instruction execution backend.

µthreads advance in *bursts*: a woken thread executes instructions inline
(charging its sub-core's dispatch/FU virtual-time servers) until it issues
a long memory access, finishes, or hits the burst cap; then an event is
scheduled at its next ready time.  Short accesses (scratchpad / L1 hits)
continue inline, so the event count is proportional to DRAM accesses, not
instructions — that is what makes a pure-Python cycle-level model feasible.

This engine lived on :class:`~repro.ndp.device.M2NDPDevice` before the
backend split; the behaviour (and therefore every timing result) is
unchanged.
"""

from __future__ import annotations

from functools import partial

from repro.exec.base import ExecutionBackend, register_backend
from repro.isa.executor import execute
from repro.ndp.generator import SPAWN_LATENCY_NS, KernelExecution
from repro.ndp.uthread import UThread
from repro.obs import tracer as obs_tracer

#: Instructions a thread may execute before yielding the event loop.
BURST_CAP = 256

#: Memory completions within this window continue inline (L1/scratchpad).
INLINE_WINDOW_NS = 8.0


class InterpreterBackend(ExecutionBackend):
    """Per-instruction functional + timed execution of every µthread."""

    name = "interpreter"

    def __init__(self, device) -> None:
        super().__init__(device)
        self._active: list[KernelExecution] = []
        self._fill_cursor = 0

    # ------------------------------------------------------------------
    # ExecutionBackend interface
    # ------------------------------------------------------------------

    @property
    def active_executions(self) -> list[KernelExecution]:
        return self._active

    def register_execution(self, execution: KernelExecution,
                           now_ns: float) -> None:
        tracer = obs_tracer.tracer_of(self.device.sim)
        if tracer is not None:
            span = tracer.begin(
                "exec.interpreter", max(now_ns, self.device.sim.now),
                pid=self.device.trace_pid,
                instance=execution.instance.instance_id,
                uthreads=execution.instance.uthreads_total)
            prev = execution.on_complete

            def traced_done(ex, when, _prev=prev, _span=span,
                            _tracer=tracer):
                _tracer.end(_span, when)
                if _prev is not None:
                    _prev(ex, when)

            execution.on_complete = traced_done
        self._active.append(execution)
        self.fill_all_units(max(now_ns, self.device.sim.now))

    def unregister_execution(self, execution: KernelExecution) -> None:
        if execution in self._active:
            self._active.remove(execution)

    # ------------------------------------------------------------------
    # µthread engine
    # ------------------------------------------------------------------

    def fill_all_units(self, now_ns: float) -> None:
        for unit in self.device.units:
            self._fill_unit(unit, now_ns)

    def _fill_unit(self, unit, now_ns: float) -> None:
        executions = self._active
        if not executions:
            return
        device = self.device
        progress = True
        while progress:
            progress = False
            for step in range(len(executions)):
                ex = executions[(self._fill_cursor + step) % len(executions)]
                if ex.finished or not ex.has_pending_for_unit(unit.index):
                    continue
                allocation = unit.occupancy.try_allocate(ex.rf_bytes)
                if allocation is None:
                    continue
                descriptor = ex.take_for_unit(unit.index)
                thread = UThread(
                    instance=ex.instance,
                    program=descriptor.program,
                    phase=descriptor.phase,
                    unit_index=unit.index,
                    allocation=allocation,
                    mapped_addr=descriptor.mapped_addr,
                    offset=descriptor.offset,
                    args_vaddr=ex.args_vaddr,
                )
                thread.body_index = descriptor.body_index
                thread.ready_ns = now_ns + SPAWN_LATENCY_NS
                ex.outstanding += 1
                device.stats.add("ndp.uthreads_spawned")
                unit.occupancy.sample(now_ns)
                device.sim.schedule_at(
                    thread.ready_ns, partial(self._run_thread, thread, ex)
                )
                progress = True
        self._fill_cursor += 1

    def _run_thread(self, thread: UThread,
                    execution: KernelExecution) -> None:
        device = self.device
        unit = device.units[thread.unit_index]
        subcore = unit.subcores[thread.allocation.subcore_index]
        memory = unit.memory_for(thread.instance.asid)
        instructions = thread.program.instructions
        count = len(instructions)
        t = thread.ready_ns
        asid = thread.instance.asid

        for _ in range(BURST_CAP):
            if thread.pc >= count:
                self._finish_thread(thread, execution, unit, t)
                return
            inst = instructions[thread.pc]
            start, exec_done = subcore.issue(inst, t)
            result = execute(inst, thread.regs, memory)
            thread.instructions_executed += 1

            if result.done:
                self._finish_thread(thread, execution, unit, exec_done)
                return
            thread.pc = result.jump_to if result.jump_to is not None else thread.pc + 1

            if result.accesses:
                completion = unit.timed_accesses(result.accesses, exec_done, asid)
                if completion - exec_done <= INLINE_WINDOW_NS:
                    t = completion
                    continue
                thread.ready_ns = completion
                device.sim.schedule_at(
                    completion, partial(self._run_thread, thread, execution)
                )
                return
            t = exec_done

        thread.ready_ns = t
        device.sim.schedule_at(t, partial(self._run_thread, thread, execution))

    def _finish_thread(self, thread: UThread, execution: KernelExecution,
                       unit, now_ns: float) -> None:
        device = self.device
        unit.occupancy.release(thread.allocation)
        unit.occupancy.sample(now_ns)
        execution.instance.instructions += thread.instructions_executed
        device.stats.add("ndp.instructions", thread.instructions_executed)
        device.stats.add("ndp.uthreads_finished")
        now = max(now_ns, device.sim.now)
        barrier_crossed = execution.on_thread_done(now_ns)
        if barrier_crossed:
            self.fill_all_units(now)
        else:
            self._fill_unit(unit, now)


register_backend(InterpreterBackend.name, InterpreterBackend)
