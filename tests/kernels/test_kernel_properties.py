"""Property-based differential tests: NDP kernels vs numpy on random data.

These run the full stack (assembler → M2func → µthreads → DRAM) against
randomized inputs, which is the strongest correctness evidence the
reproduction has: any ISA, generator, or memory-system bug shows up as a
numeric mismatch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.host.api import pack_args
from repro.kernels.olap import EVAL_RANGE_I32
from repro.kernels.reduction import REDUCE_SUM_I64
from repro.kernels.vecadd import VECADD, VECADD_F32
from repro.workloads.base import make_platform

SETTINGS = dict(max_examples=8, deadline=None)


class TestVecAddProperty:
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=-(1 << 40), max_value=1 << 40))
    @settings(**SETTINGS)
    def test_int64_vecadd(self, blocks, offset):
        n = blocks * 4                      # whole 32 B slices
        platform = make_platform()
        runtime = platform.runtime
        rng = np.random.default_rng(blocks * 7 + 1)
        a = rng.integers(-(1 << 50), 1 << 50, n).astype(np.int64) + offset
        b = rng.integers(-(1 << 50), 1 << 50, n).astype(np.int64)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(n * 8)
        runtime.run_kernel(VECADD, addr_a, addr_a + n * 8,
                           args=pack_args(addr_b, addr_c))
        out = runtime.read_array(addr_c, np.int64, n)
        assert np.array_equal(out, a + b)

    @given(st.integers(min_value=1, max_value=32))
    @settings(**SETTINGS)
    def test_f32_vecadd(self, blocks):
        n = blocks * 8
        platform = make_platform()
        runtime = platform.runtime
        rng = np.random.default_rng(blocks)
        a = rng.normal(0, 100, n).astype(np.float32)
        b = rng.normal(0, 100, n).astype(np.float32)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(n * 4)
        runtime.run_kernel(VECADD_F32, addr_a, addr_a + n * 4,
                           args=pack_args(addr_b, addr_c))
        out = runtime.read_array(addr_c, np.float32, n)
        assert np.array_equal(out, a + b)   # exact: same fp32 adds


class TestReductionProperty:
    @given(st.integers(min_value=1, max_value=128))
    @settings(**SETTINGS)
    def test_sum_matches_numpy(self, blocks):
        n = blocks * 4
        platform = make_platform()
        runtime = platform.runtime
        rng = np.random.default_rng(blocks + 99)
        values = rng.integers(-(1 << 30), 1 << 30, n).astype(np.int64)
        addr = runtime.alloc_array(values)
        result_addr = runtime.alloc(8)
        runtime.run_kernel(REDUCE_SUM_I64, addr, addr + n * 8,
                           args=pack_args(result_addr),
                           scratchpad_bytes=0x110)
        assert runtime.read_array(result_addr, np.int64, 1)[0] == values.sum()


class TestFilterProperty:
    @given(st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=500))
    @settings(**SETTINGS)
    def test_range_mask_matches_numpy(self, lo, width):
        hi = lo + width
        n = 1024
        platform = make_platform()
        runtime = platform.runtime
        rng = np.random.default_rng(lo * 31 + width)
        column = rng.integers(0, 1000, n).astype(np.int32)
        addr = runtime.alloc_array(column)
        mask_addr = runtime.alloc(n)
        runtime.run_kernel(EVAL_RANGE_I32, addr, addr + n * 4,
                           args=pack_args(mask_addr, lo, hi))
        mask = runtime.read_array(mask_addr, np.uint8, n).astype(bool)
        assert np.array_equal(mask, (column >= lo) & (column < hi))


class TestDeterminism:
    def test_identical_runs_produce_identical_timing(self):
        """The whole simulator is deterministic: same inputs, same clocks."""
        times = []
        for _ in range(2):
            platform = make_platform()
            runtime = platform.runtime
            n = 2048
            a = np.arange(n, dtype=np.int64)
            addr_a = runtime.alloc_array(a)
            addr_b = runtime.alloc_array(a)
            addr_c = runtime.alloc(n * 8)
            instance = runtime.run_kernel(
                VECADD, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c)
            )
            times.append(instance.runtime_ns)
        assert times[0] == times[1]
