"""Binding and decoding: each instruction is resolved once per program.

``bind`` must accept every mnemonic without running anything, and
``decode`` memoizes on the ``Program`` only what does not depend on the
device running it: a program shared by two NDP clocks must time exactly as
a fresh copy does on each.
"""

import numpy as np
import pytest

from repro.config import default_system
from repro.errors import ExecutionError
from repro.host.api import pack_args
from repro.isa.assembler import assemble_kernel
from repro.isa.encoding import FU_COLUMN, OPCODES, Instruction
from repro.isa.executor import bind, decode
from repro.isa.registers import UThreadRegisters
from repro.kernels.vecadd import VECADD
from repro.workloads.base import make_platform
from tests.isa.test_assembler import assemble


def spec_instruction(mnemonic: str, **operands) -> Instruction:
    spec = OPCODES[mnemonic]
    return Instruction(mnemonic, spec.op_class, spec.unit, spec.latency,
                       size=spec.size, **operands)


@pytest.mark.parametrize("mnemonic", sorted(OPCODES))
def test_every_mnemonic_binds_without_running(mnemonic):
    # operands as an assembled instruction carries them, and none at all:
    # binding reads fields, it never computes with them
    full = spec_instruction(mnemonic, rd=5, rs1=6, rs2=7, rs3=8, imm=-3,
                            target=0)
    for inst in (full, spec_instruction(mnemonic)):
        assert callable(bind(inst))


def test_run_time_errors_stay_run_time_errors():
    regs = UThreadRegisters()
    regs.f[1] = -4.0
    regs.x[6] = -1
    for source in ("fsqrt.d f2, f1", "vsetvli x5, x6, e64"):
        run = bind(assemble(source).instructions[0])
        with pytest.raises(ExecutionError):
            run(regs, None)


def test_decode_is_memoized_with_columns_and_cycles():
    program = assemble("li x5, 3\nmul x6, x5, x5\nld x7, 0(x6)\nret")
    code = decode(program)
    assert decode(program) is code
    assert [(column, cycles) for _, column, cycles in code] == [
        (FU_COLUMN[inst.unit], inst.latency_cycles)
        for inst in program.instructions]


def _interpreter_runtime(kernel, freq_ghz: float) -> float:
    platform = make_platform(default_system().with_ndp_freq(freq_ghz),
                             backend="interpreter")
    runtime = platform.runtime
    n = 512
    a = np.arange(n, dtype=np.int64)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(3 * a)
    addr_c = runtime.alloc(a.nbytes)
    instance = runtime.run_kernel(kernel, addr_a, addr_a + a.nbytes,
                                  args=pack_args(addr_b, addr_c))
    assert np.array_equal(runtime.read_array(addr_c, np.int64, n), 4 * a)
    return instance.runtime_ns


def test_one_program_at_two_clocks_times_like_fresh_copies():
    shared = assemble_kernel(VECADD)
    for freq in (2.0, 1.0, 2.0):
        fresh = _interpreter_runtime(assemble_kernel(VECADD), freq)
        assert _interpreter_runtime(shared, freq) == fresh
    assert (_interpreter_runtime(shared, 1.0)
            != _interpreter_runtime(shared, 2.0))
