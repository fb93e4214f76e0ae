"""The reference per-instruction execution backend.

µthreads advance in *bursts*: a woken thread executes instructions inline
(charging its sub-core's dispatch/FU virtual-time servers) until it issues
a long memory access, finishes, or hits the burst cap; then an event is
scheduled at its next ready time.  Short accesses (scratchpad / L1 hits)
continue inline, so the event count is proportional to DRAM accesses, not
instructions — that is what makes a pure-Python cycle-level model feasible.

A burst is one call of a function generated per program
(:func:`compile_burst`, memoized on the
:class:`~repro.isa.assembler.Program` as :func:`~repro.isa.executor.decode`
is): straight-line code per basic block with :meth:`SubCore.issue
<repro.ndp.subcore.SubCore.issue>`'s arithmetic inline, entered at any pc.
Scalar ALU, branch, load, store and AMO instructions are the executor's
templates (:func:`~repro.isa.executor.scalar_statements`) as text; every
other op calls its bound ``run``.  Timing is the same instruction by
instruction as issuing and running each one in turn.

:class:`InterpreterBackend` is also the backend interface: the device and
controller call ``register_execution`` / ``unregister_execution``, and
:class:`~repro.exec.batched.BatchedBackend` overrides
``register_execution`` and falls back to this one.
"""

from __future__ import annotations

import weakref
from functools import partial

from repro.isa.encoding import FU_COLUMN, OpClass
from repro.isa.executor import (
    SCALAR_NAMESPACE,
    bind,
    branch_test,
    run_generated,
    scalar_statements,
)
from repro.ndp.generator import SPAWN_LATENCY_NS, KernelExecution
from repro.ndp.uthread import UThread
from repro.obs import tracer as obs_tracer

#: Instructions a thread may execute before yielding the event loop.
BURST_CAP = 256

#: Memory completions within this window continue inline (L1/scratchpad).
INLINE_WINDOW_NS = 8.0


def _leaders(instructions) -> list[int]:
    """First pc of every basic block: 0, each branch target, and each pc
    after a branch or ``ret``."""
    count = len(instructions)
    leaders = {0}
    for pc, inst in enumerate(instructions):
        if inst.op_class in (OpClass.BRANCH, OpClass.RET):
            leaders.add(pc + 1)
            if inst.target is not None and 0 <= inst.target < count:
                leaders.add(inst.target)
    return sorted(pc for pc in leaders if pc < count)


def _instruction_lines(pc: int, inst, namespace: dict) -> list[str]:
    """One instruction's code after its issue: ``d`` is its exec-done time,
    and it leaves ``t`` at the thread's next ready time or exits."""
    memory_exit = (f"if c - d > {INLINE_WINDOW_NS!r}: "
                   f"return False, {pc + 1}, c, n")
    op_class = inst.op_class
    if op_class is OpClass.RET:
        return [f"return True, {pc}, d, n"]
    if op_class is OpClass.FENCE:
        return ["t = d"]
    if op_class is OpClass.BRANCH:
        if inst.mnemonic == "j":
            return ["t = d", f"pc = {inst.target}", "continue"]
        test = branch_test(inst)
        if test is not None:
            return ["t = d", f"if {test}:", f"    pc = {inst.target}",
                    "    continue"]
    code = (scalar_statements(inst)
            if op_class in (OpClass.ALU, OpClass.LOAD, OpClass.STORE,
                            OpClass.AMO) else None)
    if code is not None:
        body, access = code
        if access is None:
            return body + ["t = d"]
        size, is_write, is_amo = access
        return body + [f"c = access(a, {size}, {is_write}, {is_amo}, d, asid)",
                       memory_exit, "t = c"]
    # vector ops and everything the templates do not hold: the bound run
    run = f"R{pc}"
    namespace[run] = bind(inst)
    return [f"r = {run}(regs, mem)", "if r.accesses:",
            "    c = accesses(r.accesses, d, asid)", f"    {memory_exit}",
            "    t = c", "else:", "    t = d"]


def compile_burst(program):
    """The burst function of ``program``, generated once and memoized on it.

    ``burst(pc, t, regs, mem, core, access, accesses, asid)`` runs the
    thread whose registers are ``regs`` from ``pc``, ready at ``t``, on
    sub-core ``core``, charging memory through ``access`` (one scalar
    access, :meth:`~repro.ndp.unit.NDPUnit.timed_access`) and ``accesses``
    (:meth:`~repro.ndp.unit.NDPUnit.timed_accesses`).  It returns
    ``(finished, pc, t, executed)``: a finished thread ends at ``t``, any
    other is ready at ``t``.  It exits after :data:`BURST_CAP`
    instructions, after an access that completes more than
    :data:`INLINE_WINDOW_NS` after issue, at ``ret``, and past the last
    instruction, and times each instruction as issuing it
    (:meth:`~repro.ndp.subcore.SubCore.issue`) and then running its bound
    ``run`` does.
    """
    burst = getattr(program, "_burst", None)
    if burst is not None:
        return burst
    instructions = program.instructions
    count = len(instructions)
    namespace = dict(SCALAR_NAMESPACE)
    columns = sorted({FU_COLUMN[inst.unit] for inst in instructions} | {0})
    latencies = sorted({inst.latency_cycles for inst in instructions})
    lines = ["def burst(pc, t, regs, mem, core, access, accesses, asid):",
             "    x = regs.x",
             "    f = regs.f",
             "    vt, row, cost, period = (core._vt, core._row, core._cost, "
             "core.period_ns)"]
    lines += [f"    r{c} = row + {c}; c{c} = cost[{c}]" for c in columns]
    lines += [f"    l{cycles} = {cycles} * period" for cycles in latencies]
    lines += ["    n = 0", "    while True:"]
    leaders = _leaders(instructions)
    for start, stop in zip(leaders, leaders[1:] + [count]):
        lines.append(f"        if pc <= {stop - 1}:")
        for pc in range(start, stop):
            inst = instructions[pc]
            column, cycles = FU_COLUMN[inst.unit], inst.latency_cycles
            lines += [f"            if pc <= {pc}:"] + [
                f"                {line}" for line in (
                    [f"if n == {BURST_CAP}: return False, {pc}, t, n",
                     "n += 1",
                     # SubCore.issue: dispatch stage, then the FU column
                     "s = t",
                     "v = vt[r0]",
                     "if v > s: s = v",
                     f"v = vt[r{column}]",
                     "if v > s: s = v",
                     "vt[r0] = s + c0",
                     f"vt[r{column}] = s + c{column}",
                     f"d = s + l{cycles}"]
                    + _instruction_lines(pc, inst, namespace))]
        last = instructions[stop - 1]
        if not (last.op_class is OpClass.RET or last.mnemonic == "j"):
            lines.append(f"            pc = {stop}")     # fall through
    lines += [f"        if n == {BURST_CAP}: return False, {count}, t, n",
              f"        return True, {count}, t, n"]
    source = "\n".join(lines) + "\n"
    run_generated(source, f"burst:{program.name}:{count}", namespace)
    burst = program._burst = namespace["burst"]
    return burst


class InterpreterBackend:
    """Per-instruction functional + timed execution of every µthread."""

    name = "interpreter"

    def __init__(self, device) -> None:
        # weak: the device owns its backend, so a dropped device is freed
        # by reference counting, not by the next full collection
        self._device = weakref.ref(device)
        self._active: list[KernelExecution] = []
        self._fill_cursor = 0

    @property
    def device(self):
        return self._device()

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
        device = self._device()
        unit = device.units[thread.unit_index]
        asid = thread.instance.asid
        finished, thread.pc, t, executed = compile_burst(thread.program)(
            thread.pc, thread.ready_ns, thread.regs, unit.memory_for(asid),
            unit.subcores[thread.allocation.subcore_index],
            unit.timed_access, unit.timed_accesses, asid)
        thread.instructions_executed += executed
        if finished:
            self._finish_thread(thread, execution, unit, t)
            return
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
