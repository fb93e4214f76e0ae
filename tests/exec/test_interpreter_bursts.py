"""The interpreter's compiled bursts against the scalar reference.

A burst is one generated function per program (``compile_burst``).  Each
scalar mnemonic it inlines must leave registers, memory and the sub-core's
issue-bank row exactly as ``bind(inst)(regs, mem)`` after
``SubCore.issue`` does, and a burst must exit where stepping one
instruction at a time does: the pinned ``pc``, ``ready_ns`` and
instruction counts below are that stepping's.
"""

import math
from types import SimpleNamespace

import pytest

from repro.exec.interpreter import BURST_CAP, compile_burst
from repro.isa.assembler import Program, assemble_kernel
from repro.isa.encoding import FU_COLUMN, OPCODES, Instruction, OpClass
from repro.isa.executor import bind, branch_test, scalar_statements
from repro.isa.registers import RegisterUsage, UThreadRegisters
from repro.ndp.occupancy import SlotAllocation
from repro.ndp.uthread import Phase, UThread
from repro.workloads.base import make_platform

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
OPERANDS = [0, 1, -1, INT64_MIN, INT64_MAX, 1 << 31, 1 << 32]
UNIT, SUBCORE = 3, 1


def _inlined(mnemonic: str) -> bool:
    spec = OPCODES[mnemonic]
    inst = Instruction(mnemonic, spec.op_class, spec.unit, spec.latency,
                       rd=5, rs1=6, rs2=7, rs3=8, imm=0, size=spec.size)
    if spec.op_class is OpClass.BRANCH:
        return mnemonic == "j" or branch_test(inst) is not None
    return scalar_statements(inst) is not None


INLINED = sorted(m for m in OPCODES if _inlined(m))


class _Side:
    """One platform running instructions one way; ``base`` is a mapped
    page the memory operands point into."""

    def __init__(self) -> None:
        self.platform = make_platform(backend="interpreter")
        self.base = self.platform.runtime.alloc(4096)
        self.device = self.platform.device
        self.unit = self.device.units[UNIT]
        self.core = self.unit.subcores[SUBCORE]
        self.memory = self.unit.memory_for(self.platform.runtime.asid)

    def state(self, regs):
        return (list(regs.x), [repr(v) for v in regs.f],
                self.device.physical.read_bytes(self.base, 64),
                self.device.issue_bank.vt[UNIT, SUBCORE].tolist())


def _cases(mnemonic):
    spec = OPCODES[mnemonic]
    memory = spec.op_class in (OpClass.LOAD, OpClass.STORE, OpClass.AMO)
    for a in OPERANDS:
        for b in OPERANDS:
            for rd in (0, 5):
                # memory ops: a is a displacement's worth of offset, b the
                # stored or AMO operand
                imm = 8 * (OPERANDS.index(a) % 4) if memory else b
                yield a, b, rd, imm


def _regs(side, a, b, memory):
    regs = UThreadRegisters()
    regs.x[6] = side.base + 16 if memory else a
    regs.x[7] = b
    regs.x[5] = 99
    regs.f[6], regs.f[7], regs.f[8] = float(a), float(b), -0.5
    return regs


def _outcome(run):
    try:
        return run()
    except Exception as exc:            # both sides must raise alike
        return type(exc).__name__


@pytest.mark.parametrize("mnemonic", INLINED)
def test_inlined_mnemonic_matches_bind_and_issue(mnemonic):
    spec = OPCODES[mnemonic]
    memory = spec.op_class in (OpClass.LOAD, OpClass.STORE, OpClass.AMO)
    branch = spec.op_class is OpClass.BRANCH
    burst_side, reference = _Side(), _Side()
    asid = burst_side.platform.runtime.asid
    for a, b, rd, imm in _cases(mnemonic):
        inst = Instruction(mnemonic, spec.op_class, spec.unit, spec.latency,
                           rd=rd, rs1=6, rs2=7, rs3=8, imm=imm, target=2,
                           size=spec.size)
        # a branch jumps past a ret: a taken branch falls off at pc 3
        code = [inst] + ([Instruction("ret", OpClass.RET, spec.unit, 1),
                          Instruction("fence", OpClass.FENCE, spec.unit, 1)]
                         if branch else [])
        program = Program(code, RegisterUsage())

        regs = _regs(burst_side, a, b, memory)
        side = burst_side
        got = _outcome(lambda: compile_burst(program)(
            0, 0.0, regs, side.memory, side.core, side.unit.timed_access,
            side.unit.timed_accesses, asid))

        ref_regs = _regs(reference, a, b, memory)

        def run_reference():
            done = reference.core.issue(FU_COLUMN[inst.unit],
                                        inst.latency_cycles, 0.0)[1]
            result = bind(inst)(ref_regs, reference.memory)
            if branch:
                # then the fence (taken) or the ret (not taken) issues
                nxt = code[2 if result.jump_to is not None else 1]
                reference.core.issue(FU_COLUMN[nxt.unit], 1, done)
            return result
        result = _outcome(run_reference)

        if isinstance(got, str) or isinstance(result, str):
            assert got == result
        elif branch:
            assert got[:2] == (True, 3 if result.jump_to is not None else 1)
            assert got[3] == 2
        else:
            # one instruction, then past the end (or parked on a miss)
            assert (got[1], got[3]) == (1, 1)
        assert burst_side.state(regs) == reference.state(ref_regs)


def test_every_scalar_class_is_inlined():
    classes = {OPCODES[m].op_class for m in INLINED}
    assert classes == {OpClass.ALU, OpClass.BRANCH, OpClass.LOAD,
                       OpClass.STORE, OpClass.AMO}
    assert all(_inlined(m) for m in OPCODES
               if OPCODES[m].op_class in (OpClass.ALU, OpClass.LOAD,
                                          OpClass.STORE, OpClass.AMO))


# ---------------------------------------------------------------------------
# burst edges
# ---------------------------------------------------------------------------

def _bursts(source: str, *, mapped: bool = False, limit: int = 4):
    """Run one µthread's bursts by hand: ``(pc, ready_ns,
    instructions_executed, finish time or None)`` after each."""
    platform = make_platform(backend="interpreter")
    x1 = platform.runtime.alloc(4096) if mapped else 0
    thread = UThread(
        instance=SimpleNamespace(asid=platform.runtime.asid),
        program=assemble_kernel(source).bodies[0], phase=Phase.BODY,
        unit_index=UNIT,
        allocation=SlotAllocation(subcore_index=SUBCORE, slot_index=0,
                                  rf_bytes=0),
        mapped_addr=x1, offset=0)
    backend = platform.device.backend
    finished = []
    backend._finish_thread = lambda th, ex, unit, t: finished.append(t)
    out = []
    for _ in range(limit):
        backend._run_thread(thread, None)
        out.append((thread.pc, thread.ready_ns, thread.instructions_executed,
                    finished[-1] if finished else None))
        if finished:
            break
    return out


def test_cap_hit_mid_block():
    # 1 + 28 nine-instruction iterations + 3: the cap lands inside the loop
    loop = ("li x7, 1000\nloop:\n" + "addi x5, x5, 1\n" * 8
            + "blt x5, x7, loop\nret\n")
    assert _bursts(loop, limit=2) == [(4, 128.0, 256, None),
                                      (8, 256.0, 512, None)]


def test_resume_mid_block_after_a_long_access():
    source = ("addi x5, x1, 8\naddi x6, x5, 8\nld x8, 0(x5)\n"
              "addi x9, x8, 1\nsd x9, 8(x5)\nadd x10, x9, x6\n"
              "ld x11, 64(x5)\nmul x12, x11, x10\nret\n")
    assert _bursts(source, mapped=True) == [
        (3, 35.375, 3, None), (7, 63.875, 7, None), (8, 63.875, 9, 65.875)]


def test_fall_off_the_end_at_exactly_the_cap():
    assert _bursts("addi x5, x5, 1\n" * BURST_CAP) == [
        (256, 128.0, 256, None), (256, 128.0, 256, 128.0)]


def test_burst_is_memoized_per_program():
    program = assemble_kernel("li x5, 1\nret\n").bodies[0]
    assert compile_burst(program) is compile_burst(program)


@pytest.mark.parametrize("value, error", [(math.inf, OverflowError),
                                          (math.nan, ValueError)])
def test_non_finite_conversion_raises_alike(value, error):
    program = assemble_kernel("fcvt.l.d x5, f1\nret\n").bodies[0]
    side = _Side()
    for run in (
            lambda regs: compile_burst(program)(
                0, 0.0, regs, side.memory, side.core, side.unit.timed_access,
                side.unit.timed_accesses, side.platform.runtime.asid),
            lambda regs: bind(program.instructions[0])(regs, side.memory)):
        regs = UThreadRegisters()
        regs.f[1] = value
        with pytest.raises(error):
            run(regs)
