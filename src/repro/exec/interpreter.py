"""The reference per-instruction execution backend.

µthreads advance in *bursts*: a woken thread executes instructions inline
(charging its sub-core's dispatch/FU virtual-time servers) until it issues
a long memory access, finishes, or hits the burst cap; then an event is
scheduled at its next ready time.  Short accesses (scratchpad / L1 hits)
continue inline, so the event count is proportional to DRAM accesses, not
instructions — that is what makes a pure-Python cycle-level model feasible.
A thread steps through its program's decoded form
(:func:`repro.isa.executor.decode`, bound once per program): per
instruction it issues on a known FU column and runs a bound handler, with
no dispatch on the instruction.

:class:`InterpreterBackend` is also the backend interface: the device and
controller call ``register_execution`` / ``unregister_execution``, and
:class:`~repro.exec.batched.BatchedBackend` overrides
``register_execution`` and falls back to this one.
"""

from __future__ import annotations

from functools import partial

from repro.isa.executor import decode
from repro.ndp.generator import SPAWN_LATENCY_NS, KernelExecution
from repro.ndp.uthread import UThread
from repro.obs import tracer as obs_tracer

#: Instructions a thread may execute before yielding the event loop.
BURST_CAP = 256

#: Memory completions within this window continue inline (L1/scratchpad).
INLINE_WINDOW_NS = 8.0


class InterpreterBackend:
    """Per-instruction functional + timed execution of every µthread."""

    name = "interpreter"

    def __init__(self, device) -> None:
        self.device = device
        self._active: list[KernelExecution] = []
        self._fill_cursor = 0

    # ------------------------------------------------------------------
    # backend interface
    # ------------------------------------------------------------------

    def register_execution(self, execution: KernelExecution,
                           now_ns: float) -> None:
        """A kernel instance started; begin executing its µthreads."""
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
        """A kernel instance completed; drop any engine state for it."""
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
        issue = unit.subcores[thread.allocation.subcore_index].issue
        asid = thread.instance.asid
        memory = unit.memory_for(asid)
        code = decode(thread.program)
        count = len(code)
        regs = thread.regs
        t = thread.ready_ns
        # pc and the instruction count live in locals; they are written
        # back to the thread whenever it yields or finishes
        pc = thread.pc
        executed = thread.instructions_executed

        for _ in range(BURST_CAP):
            if pc >= count:
                thread.pc, thread.instructions_executed = pc, executed
                self._finish_thread(thread, execution, unit, t)
                return
            run, column, cycles = code[pc]
            exec_done = issue(column, cycles, t)[1]
            result = run(regs, memory)
            executed += 1

            if result.done:
                thread.pc, thread.instructions_executed = pc, executed
                self._finish_thread(thread, execution, unit, exec_done)
                return
            pc = result.jump_to if result.jump_to is not None else pc + 1

            if result.accesses:
                completion = unit.timed_accesses(result.accesses, exec_done, asid)
                if completion - exec_done <= INLINE_WINDOW_NS:
                    t = completion
                    continue
                thread.pc, thread.instructions_executed = pc, executed
                thread.ready_ns = completion
                device.sim.schedule_at(
                    completion, partial(self._run_thread, thread, execution)
                )
                return
            t = exec_done

        thread.pc, thread.instructions_executed = pc, executed
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
