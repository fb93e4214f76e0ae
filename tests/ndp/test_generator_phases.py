"""Tests for µthread generation: pool mapping, phases, unit interleaving."""

import pytest

from repro.isa.assembler import assemble_kernel
from repro.ndp.generator import KernelExecution
from repro.ndp.kernel import KernelDescriptor, KernelInstance
from repro.ndp.uthread import Phase


def _descriptor(program) -> KernelDescriptor:
    return KernelDescriptor(kernel_id=1, program=program, scratchpad_bytes=0,
                            usage=program.usage)


def make_execution(source: str, pool_span: int, stride: int = 32,
                   num_units: int = 4, slots_per_unit: int = 8,
                   on_complete=None) -> KernelExecution:
    program = assemble_kernel(source)
    kernel = _descriptor(program)
    instance = KernelInstance(
        instance_id=1, kernel=kernel, pool_base=0x1000,
        pool_bound=0x1000 + pool_span, uthread_stride=stride,
    )
    execution = KernelExecution(
        instance=instance, num_units=num_units, slots_per_unit=slots_per_unit,
        vector_bytes=32, scratchpad_bytes=128 * 1024,
        max_concurrent_kernels=48,
        on_complete=on_complete or (lambda ex, t: None),
        # no device here: the generator itself never reads the partition
        unit_base=0, partition=None,
    )
    execution.start(0.0)
    return execution


BODY_ONLY = ".body\nret"
THREE_PHASE = ".init\nret\n.body\nret\n.final\nret"


class TestPoolMapping:
    def test_body_thread_count(self):
        ex = make_execution(BODY_ONLY, pool_span=320, stride=32)
        assert ex.instance.num_body_uthreads == 10

    def test_partial_tail_slice_counts(self):
        ex = make_execution(BODY_ONLY, pool_span=33, stride=32)
        assert ex.instance.num_body_uthreads == 2

    def test_interleaved_unit_assignment(self):
        """Body µthread i runs on unit i % num_units (§III-E)."""
        ex = make_execution(BODY_ONLY, pool_span=8 * 32, num_units=4)
        seen = {}
        for unit in range(4):
            while ex.has_pending_for_unit(unit):
                desc = ex.take_for_unit(unit)
                index = (desc.mapped_addr - 0x1000) // 32
                seen[index] = unit
        assert seen == {i: i % 4 for i in range(8)}

    def test_mapped_address_and_offset(self):
        ex = make_execution(BODY_ONLY, pool_span=4 * 32, num_units=2)
        desc = ex.take_for_unit(1)
        assert desc.mapped_addr == 0x1000 + 32
        assert desc.offset == 32


class TestPhases:
    def test_initializer_spawns_one_per_slot(self):
        ex = make_execution(THREE_PHASE, pool_span=32, num_units=2,
                            slots_per_unit=4)
        count = 0
        for unit in range(2):
            while ex.has_pending_for_unit(unit):
                desc = ex.take_for_unit(unit)
                assert desc.phase is Phase.INITIALIZER
                assert desc.mapped_addr == unit       # x1 = unit index
                count += 1
        assert count == 8

    def test_phase_barrier_advances(self):
        completions = []
        ex = make_execution(
            THREE_PHASE, pool_span=32, num_units=1, slots_per_unit=2,
            on_complete=lambda e, t: completions.append(t),
        )
        # drain initializer (2 slot-threads)
        descs = []
        while ex.has_pending_for_unit(0):
            descs.append(ex.take_for_unit(0))
        ex.outstanding = len(descs)
        assert ex.on_thread_done(1.0) is False
        assert ex.on_thread_done(2.0) is True       # barrier crossed
        # body phase: 1 µthread
        desc = ex.take_for_unit(0)
        assert desc.phase is Phase.BODY
        ex.outstanding = 1
        assert ex.on_thread_done(3.0) is True       # barrier to finalizer
        descs = []
        while ex.has_pending_for_unit(0):
            descs.append(ex.take_for_unit(0))
        assert all(d.phase is Phase.FINALIZER for d in descs)
        ex.outstanding = len(descs)
        for i, _ in enumerate(descs):
            ex.on_thread_done(4.0 + i)
        assert ex.finished
        assert len(completions) == 1

    def test_multi_body_kernel_runs_bodies_in_order(self):
        source = ".body\nret\n.body\nli x4, 1\nret"
        ex = make_execution(source, pool_span=32, num_units=1,
                            slots_per_unit=2)
        first = ex.take_for_unit(0)
        assert first.body_index == 0
        ex.outstanding = 1
        ex.on_thread_done(1.0)
        second = ex.take_for_unit(0)
        assert second.body_index == 1

    def test_uthreads_total_accounting(self):
        ex = make_execution(THREE_PHASE, pool_span=4 * 32, num_units=2,
                            slots_per_unit=4)
        # init (2*4) + body (4) + final (2*4)
        assert ex.instance.uthreads_total == 20


class TestDescriptorValidation:
    def test_declared_registers_must_cover_usage(self):
        # ndpRegisterKernel rejects an nInt below what the code uses
        from repro.host.api import pack_args
        from repro.ndp.controller import ERR_BAD_ARGS
        from repro.ndp.device import M2NDPDevice
        from repro.sim.engine import Simulator

        program = assemble_kernel("li x9, 1\nret")
        device = M2NDPDevice(Simulator())
        device.install_code(0x1000, program)
        usage = program.usage

        def register(n_int: int) -> int:
            return device.controller._register(pack_args(
                0x1000, 0, n_int, usage.float_regs, usage.vector_regs))

        assert register(usage.int_regs - 1) == ERR_BAD_ARGS
        assert register(usage.int_regs) > 0

    def test_rf_bytes_per_uthread(self):
        program = assemble_kernel("vadd.vv v1, v2, v3\nld x4, 0(x3)\nret")
        kernel = _descriptor(program)
        # 5 int regs * 8 B + 4 vector regs * 32 B
        assert kernel.rf_bytes_per_uthread(32) == 5 * 8 + 4 * 32

    def test_bad_pool_region_rejected(self):
        from repro.errors import LaunchError

        program = assemble_kernel(BODY_ONLY)
        kernel = _descriptor(program)
        with pytest.raises(LaunchError):
            KernelInstance(instance_id=1, kernel=kernel,
                           pool_base=0x2000, pool_bound=0x1000)

    def test_runtime_requires_completion(self):
        from repro.errors import LaunchError

        program = assemble_kernel(BODY_ONLY)
        kernel = _descriptor(program)
        instance = KernelInstance(instance_id=1, kernel=kernel,
                                  pool_base=0, pool_bound=32)
        with pytest.raises(LaunchError):
            instance.runtime_ns
