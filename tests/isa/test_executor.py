"""Tests for the functional executor: scalar, memory, branch semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.executor import bind
from repro.isa.registers import UThreadRegisters, to_signed64
from repro.mem.physical import PhysicalMemory
from tests.isa.test_assembler import assemble


class SimpleMemory:
    """Minimal MemoryInterface over a PhysicalMemory (identity mapping)."""

    def __init__(self):
        self.pm = PhysicalMemory()

    def load(self, vaddr, size):
        return self.pm.read_bytes(vaddr, size)

    def store(self, vaddr, data):
        self.pm.write_bytes(vaddr, data)

    def amo(self, op, vaddr, operand, size, is_float):
        import struct
        fmt = {4: "<i", 8: "<q"}[size] if not is_float else {4: "<f", 8: "<d"}[size]
        old = struct.unpack(fmt, self.pm.read_bytes(vaddr, size))[0]
        from repro.mem.scratchpad import _apply_amo
        new = _apply_amo(op, old, operand)
        if not is_float:
            bits = size * 8
            new &= (1 << bits) - 1
            new -= (1 << bits) if new >= (1 << (bits - 1)) else 0
        self.pm.write_bytes(vaddr, struct.pack(fmt, new))
        return old


def run_program(source: str, regs: UThreadRegisters | None = None,
                mem: SimpleMemory | None = None, max_steps: int = 10_000):
    """Execute a program to completion; returns (regs, mem)."""
    prog = assemble(source)
    regs = regs if regs is not None else UThreadRegisters()
    mem = mem if mem is not None else SimpleMemory()
    pc = 0
    for _ in range(max_steps):
        if pc >= len(prog.instructions):
            break
        result = bind(prog.instructions[pc])(regs, mem)
        if result.done:
            break
        pc = result.jump_to if result.jump_to is not None else pc + 1
    else:
        raise AssertionError("program did not terminate")
    return regs, mem


class TestScalarArithmetic:
    @pytest.mark.parametrize("source,reg,expected", [
        ("li x1, 5\nli x2, 7\nadd x3, x1, x2", 3, 12),
        ("li x1, 5\nli x2, 7\nsub x3, x1, x2", 3, -2),
        ("li x1, 6\nli x2, 7\nmul x3, x1, x2", 3, 42),
        ("li x1, 45\nli x2, 7\ndiv x3, x1, x2", 3, 6),
        ("li x1, 45\nli x2, 7\nrem x3, x1, x2", 3, 3),
        ("li x1, -45\nli x2, 7\ndiv x3, x1, x2", 3, -6),
        ("li x1, -45\nli x2, 7\nrem x3, x1, x2", 3, -3),
        ("li x1, 12\nandi x2, x1, 10", 2, 8),
        ("li x1, 12\nori x2, x1, 3", 2, 15),
        ("li x1, 12\nxori x2, x1, 10", 2, 6),
        ("li x1, 1\nslli x2, x1, 10", 2, 1024),
        ("li x1, 1024\nsrli x2, x1, 3", 2, 128),
        ("li x1, -16\nsrai x2, x1, 2", 2, -4),
        ("li x1, 3\nli x2, 5\nslt x3, x1, x2", 3, 1),
        ("li x1, -1\nli x2, 5\nsltu x3, x1, x2", 3, 0),   # unsigned -1 is huge
        ("li x1, 7\nmv x2, x1", 2, 7),
        ("li x1, 7\nneg x2, x1", 2, -7),
        ("li x1, 0\nseqz x2, x1", 2, 1),
        ("li x1, 3\nsnez x2, x1", 2, 1),
        ("lui x1, 1", 1, 4096),
    ])
    def test_ops(self, source, reg, expected):
        regs, _ = run_program(source + "\nret")
        assert regs.x[reg] == expected

    def test_x0_hardwired(self):
        regs, _ = run_program("li x0, 99\nadd x0, x0, x0\nret")
        assert regs.x[0] == 0

    def test_div_by_zero_semantics(self):
        regs, _ = run_program("li x1, 5\nli x2, 0\ndiv x3, x1, x2\nret")
        assert regs.x[3] == -1   # RISC-V: division by zero yields -1

    def test_64bit_wraparound(self):
        regs, _ = run_program("""
            li x1, 0x7FFFFFFFFFFFFFFF
            li x2, 1
            add x3, x1, x2
            ret
        """)
        assert regs.x[3] == -(1 << 63)

    @given(st.integers(min_value=-(1 << 62), max_value=1 << 62),
           st.integers(min_value=-(1 << 62), max_value=1 << 62))
    def test_add_matches_wrapped_python(self, a, b):
        regs = UThreadRegisters()
        regs.write_x(5, a)
        regs.write_x(6, b)
        prog = assemble("add x7, x5, x6\nret")
        bind(prog.instructions[0])(regs, SimpleMemory())
        assert regs.x[7] == to_signed64(a + b)


class TestScalarFP:
    def test_fp_chain(self):
        regs, _ = run_program("""
            li x1, 3
            fcvt.d.l f1, x1
            li x2, 4
            fcvt.d.l f2, x2
            fmul.d f3, f1, f2
            fadd.d f4, f3, f1
            ret
        """)
        assert regs.f[4] == pytest.approx(15.0)

    def test_fmadd(self):
        regs, _ = run_program("""
            li x1, 2
            fcvt.d.l f1, x1
            li x2, 3
            fcvt.d.l f2, x2
            li x3, 10
            fcvt.d.l f3, x3
            fmadd.d f4, f1, f2, f3
            ret
        """)
        assert regs.f[4] == pytest.approx(16.0)

    def test_fdiv_and_sqrt(self):
        regs, _ = run_program("""
            li x1, 9
            fcvt.d.l f1, x1
            fsqrt.d f2, f1
            li x2, 2
            fcvt.d.l f3, x2
            fdiv.d f4, f1, f3
            ret
        """)
        assert regs.f[2] == pytest.approx(3.0)
        assert regs.f[4] == pytest.approx(4.5)

    def test_fp_compares(self):
        regs, _ = run_program("""
            li x1, 1
            fcvt.d.l f1, x1
            li x2, 2
            fcvt.d.l f2, x2
            flt.d x3, f1, f2
            fle.d x4, f2, f2
            feq.d x5, f1, f2
            ret
        """)
        assert (regs.x[3], regs.x[4], regs.x[5]) == (1, 1, 0)

    def test_fmv_bit_pattern_roundtrip(self):
        regs, _ = run_program("""
            li x1, 5
            fcvt.d.l f1, x1
            fmv.x.d x2, f1
            fmv.d.x f2, x2
            ret
        """)
        assert regs.f[2] == 5.0


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        regs, mem = run_program("""
            li x1, 0x1000
            li x2, -12345
            sd x2, 0(x1)
            ld x3, 0(x1)
            lw x4, 0(x1)
            ret
        """)
        assert regs.x[3] == -12345
        assert regs.x[4] == -12345

    def test_sign_extension_on_loads(self):
        regs, mem = run_program("""
            li x1, 0x1000
            li x2, 0xFF
            sb x2, 0(x1)
            lb x3, 0(x1)
            lbu x4, 0(x1)
            ret
        """)
        assert regs.x[3] == -1
        assert regs.x[4] == 0xFF

    def test_fp_load_store(self):
        regs, _ = run_program("""
            li x1, 0x2000
            li x2, 7
            fcvt.d.l f1, x2
            fsd f1, 0(x1)
            fld f2, 0(x1)
            ret
        """)
        assert regs.f[2] == 7.0

    def test_amoadd_returns_old_value(self):
        regs, mem = run_program("""
            li x1, 0x3000
            li x2, 10
            sd x2, 0(x1)
            li x3, 5
            amoadd.d x4, x3, (x1)
            ld x5, 0(x1)
            ret
        """)
        assert regs.x[4] == 10
        assert regs.x[5] == 15

    def test_amomin(self):
        regs, _ = run_program("""
            li x1, 0x3000
            li x2, 100
            sw x2, 0(x1)
            li x3, 42
            amomin.w x4, x3, (x1)
            lw x5, 0(x1)
            ret
        """)
        assert regs.x[4] == 100 and regs.x[5] == 42

    def test_amoswap_chain(self):
        regs, _ = run_program("""
            li x1, 0x3000
            li x2, 1
            amoswap.d x3, x2, (x1)
            li x4, 2
            amoswap.d x5, x4, (x1)
            ret
        """)
        assert regs.x[3] == 0 and regs.x[5] == 1


class TestControlFlow:
    def test_loop_counts(self):
        regs, _ = run_program("""
            li x1, 0
            li x2, 10
        loop:
            addi x1, x1, 1
            blt x1, x2, loop
            ret
        """)
        assert regs.x[1] == 10

    def test_branch_variants(self):
        regs, _ = run_program("""
            li x1, 5
            li x2, 5
            li x10, 0
            beq x1, x2, taken
            li x10, 99
        taken:
            bne x1, x2, nottaken
            li x11, 1
        nottaken:
            bgeu x1, x2, done
            li x11, 99
        done:
            ret
        """)
        assert regs.x[10] == 0 and regs.x[11] == 1

    def test_unconditional_jump(self):
        regs, _ = run_program("""
            li x1, 1
            j skip
            li x1, 99
        skip:
            ret
        """)
        assert regs.x[1] == 1

    def test_fence_is_noop(self):
        regs, _ = run_program("li x1, 1\nfence\nret")
        assert regs.x[1] == 1
