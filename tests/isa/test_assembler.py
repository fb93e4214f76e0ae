"""Tests for the RISC-V/RVV assembler."""

import pytest

from repro.errors import AssemblerError
from repro.isa.assembler import assemble_kernel, parse_operand
from repro.isa.encoding import FUnit, OpClass


def assemble(text: str):
    """``text`` as one section: the body of a single-body kernel."""
    return assemble_kernel(text).bodies[0]


class TestOperandParsing:
    @pytest.mark.parametrize("token,bank,index", [
        ("x0", "x", 0), ("x31", "x", 31), ("f7", "f", 7), ("v12", "v", 12),
        ("zero", "x", 0), ("ra", "x", 1), ("sp", "x", 2), ("a0", "x", 10),
        ("t0", "x", 5), ("t6", "x", 31), ("s11", "x", 27), ("fa0", "f", 10),
    ])
    def test_registers(self, token, bank, index):
        op = parse_operand(token)
        assert (op.kind, op.bank, op.index) == ("reg", bank, index)

    @pytest.mark.parametrize("token,value", [
        ("42", 42), ("-7", -7), ("0x10", 16), ("0xFF", 255), ("0", 0),
    ])
    def test_immediates(self, token, value):
        op = parse_operand(token)
        assert (op.kind, op.imm) == ("imm", value)

    def test_memory_operand(self):
        op = parse_operand("8(x3)")
        assert (op.kind, op.offset, op.base) == ("mem", 8, 3)

    def test_memory_no_offset(self):
        op = parse_operand("(x1)")
        assert (op.kind, op.offset, op.base) == ("mem", 0, 1)

    def test_memory_hex_offset(self):
        op = parse_operand("0x20(a0)")
        assert (op.kind, op.offset, op.base) == ("mem", 32, 10)

    def test_element_width(self):
        op = parse_operand("e64")
        assert (op.kind, op.imm) == ("ew", 64)

    def test_label(self):
        assert parse_operand("loop_1").kind == "label"

    def test_register_index_range(self):
        with pytest.raises(AssemblerError):
            parse_operand("x32")

    def test_garbage_rejected(self):
        with pytest.raises(AssemblerError):
            parse_operand("$%^")


class TestAssemble:
    def test_simple_program(self):
        prog = assemble("li x1, 5\naddi x2, x1, 3\nret")
        assert len(prog) == 3
        assert prog.instructions[0].mnemonic == "li"
        assert prog.instructions[2].op_class is OpClass.RET

    def test_comments_stripped(self):
        prog = assemble("""
            // a comment
            li x1, 5     # trailing
            ret          ; another style
        """)
        assert len(prog) == 2

    def test_labels_resolved(self):
        prog = assemble("""
            li x1, 0
        loop:
            addi x1, x1, 1
            bnez x1, loop
            ret
        """)
        branch = prog.instructions[2]
        assert branch.target == 1          # the instruction ``loop`` labels

    def test_forward_reference(self):
        prog = assemble("""
            beqz x1, end
            li x2, 1
        end:
            ret
        """)
        assert prog.instructions[0].target == 2

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("j nowhere\nret")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\nret\na:\nret")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError) as exc:
            assemble("frobnicate x1, x2")
        assert "frobnicate" in str(exc.value)

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("add x1, x2")

    def test_register_usage_computed(self):
        prog = assemble("""
            ld x4, 0(x3)
            vle64.v v2, (x1)
            fadd.d f3, f1, f2
            ret
        """)
        assert prog.usage.int_regs == 5     # x4 highest => 5
        assert prog.usage.float_regs == 4   # f3 highest => 4
        assert prog.usage.vector_regs == 3  # v2 highest => 3

    def test_functional_units_assigned(self):
        prog = assemble("mul x1, x2, x3\nld x4, 0(x1)\nvadd.vv v1, v2, v3\nret")
        assert prog.instructions[0].unit is FUnit.SSFU
        assert prog.instructions[1].unit is FUnit.SLSU
        assert prog.instructions[2].unit is FUnit.VALU

    def test_store_operand_order(self):
        prog = assemble("sd x4, 8(x3)")
        inst = prog.instructions[0]
        assert inst.rs2 == 4 and inst.rs1 == 3 and inst.imm == 8

    def test_amo_operands(self):
        prog = assemble("amoadd.d x4, x5, (x6)")
        inst = prog.instructions[0]
        assert (inst.rd, inst.rs2, inst.rs1) == (4, 5, 6)


class TestAssembleKernel:
    def test_sections(self):
        kernel = assemble_kernel("""
        .init
            ret
        .body
            li x1, 1
            ret
        .final
            ret
        """)
        assert kernel.initializer is not None
        assert kernel.finalizer is not None
        assert len(kernel.bodies) == 1
        assert kernel.static_instruction_count == 4

    def test_multiple_bodies(self):
        kernel = assemble_kernel("""
        .body
            ret
        .body
            li x1, 1
            ret
        """)
        assert len(kernel.bodies) == 2

    def test_bare_program_is_body(self):
        kernel = assemble_kernel("li x1, 1\nret")
        assert len(kernel.bodies) == 1
        assert kernel.initializer is None

    def test_kernel_usage_merges_sections(self):
        kernel = assemble_kernel("""
        .init
            li x9, 0
            ret
        .body
            vadd.vv v5, v1, v2
            ret
        """)
        assert kernel.usage.int_regs == 10
        assert kernel.usage.vector_regs == 6

    def test_no_body_rejected(self):
        with pytest.raises(AssemblerError):
            assemble_kernel(".init\nret")

    def test_duplicate_init_rejected(self):
        with pytest.raises(AssemblerError):
            assemble_kernel(".init\nret\n.body\nret\n.init\nret")

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblerError):
            assemble_kernel(".prologue\nret")


class TestKernelLibrary:
    def test_every_library_kernel_assembles(self):
        from repro.kernels import KERNEL_LIBRARY

        for name, source in KERNEL_LIBRARY.items():
            kernel = assemble_kernel(source, name=name)
            assert kernel.static_instruction_count > 0

    def test_library_kernels_are_register_light(self):
        """The µthread premise: memory-bound kernels need few registers."""
        from repro.kernels import KERNEL_LIBRARY

        for name, source in KERNEL_LIBRARY.items():
            usage = assemble_kernel(source, name=name).usage
            assert usage.int_regs <= 24, name
            assert usage.vector_regs <= 8, name
