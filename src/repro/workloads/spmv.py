"""SpMV workload (§IV-B): y = A·x over a CSR sparse matrix.

The generator produces a power-law row-degree distribution (the evaluated
matrices are graph-like), which is what creates inter-/intra-warp
divergence on the GPU and load imbalance that M2NDP's fine-grained
µthread spawning absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.api import pack_args
from repro.host.gpu import (WARP_SIZE, WARPS_PER_TB, GPUKernelSpec,
                            WarpProfile)
from repro.kernels.spmv import SPMV_CSR
from repro.workloads.base import NDPRunResult, Platform, rng


@dataclass
class CSRMatrix:
    row_ptr: np.ndarray      # i64, n_rows + 1
    col_idx: np.ndarray      # i32
    values: np.ndarray       # f32
    n_rows: int
    n_cols: int

    @property
    def nnz(self) -> int:
        return len(self.col_idx)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.row_ptr)


@dataclass
class SPMVData:
    matrix: CSRMatrix
    x: np.ndarray
    reference: np.ndarray


def generate_csr(n_rows: int, avg_degree: int, salt: int = 0,
                 n_cols: int | None = None) -> CSRMatrix:
    """Power-law (lognormal) row degrees, uniform column targets."""
    gen = rng(salt + n_rows)
    n_cols = n_cols if n_cols is not None else n_rows
    raw = gen.lognormal(mean=np.log(max(avg_degree, 1)), sigma=1.0, size=n_rows)
    degrees = np.clip(raw.astype(np.int64), 0, n_cols)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_ptr[1:])
    nnz = int(row_ptr[-1])
    col_idx = gen.integers(0, n_cols, nnz, dtype=np.int32)
    values = gen.normal(0.0, 1.0, nnz).astype(np.float32)
    return CSRMatrix(row_ptr=row_ptr, col_idx=col_idx, values=values,
                     n_rows=n_rows, n_cols=n_cols)


def generate(n_rows: int, avg_degree: int, salt: int = 0) -> SPMVData:
    matrix = generate_csr(n_rows, avg_degree, salt)
    gen = rng(salt + 1)
    x = gen.normal(0.0, 1.0, matrix.n_cols).astype(np.float32)
    reference = _reference_spmv(matrix, x)
    return SPMVData(matrix=matrix, x=x, reference=reference)


def _reference_spmv(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Float64-accumulated reference (matches the kernel's fmadd.d chain)."""
    y = np.zeros(matrix.n_rows, dtype=np.float64)
    for row in range(matrix.n_rows):
        start, end = matrix.row_ptr[row], matrix.row_ptr[row + 1]
        acc = 0.0
        for k in range(start, end):
            acc += float(matrix.values[k]) * float(x[matrix.col_idx[k]])
        y[row] = acc
    return y.astype(np.float32)


def run_ndp(platform: Platform, data: SPMVData) -> NDPRunResult:
    runtime = platform.runtime
    m = data.matrix
    rp_addr = runtime.alloc_array(m.row_ptr)
    ci_addr = runtime.alloc_array(m.col_idx)
    va_addr = runtime.alloc_array(m.values)
    x_addr = runtime.alloc_array(data.x)
    y_addr = runtime.alloc(m.n_rows * 4)
    start_bytes = platform.stats.get("cxl_dram.bytes")

    instance = runtime.run_kernel(
        SPMV_CSR,
        rp_addr,
        rp_addr + m.n_rows * 8,     # pool over row pointers (4 rows / 32 B)
        args=pack_args(ci_addr, va_addr, x_addr, y_addr, m.n_rows),
        name="spmv",
    )
    produced = runtime.read_array(y_addr, np.float32, m.n_rows)
    correct = bool(np.allclose(produced, data.reference, rtol=1e-3, atol=1e-4))

    return NDPRunResult(
        name="spmv",
        runtime_ns=instance.runtime_ns,
        correct=correct,
        instructions=instance.instructions,
        uthreads=instance.uthreads_done,
        dram_bytes=platform.stats.get("cxl_dram.bytes") - start_bytes,
        extras={"nnz": m.nnz,
                "global_accesses": platform.stats.get("ndp.global_accesses")},
    )


def gpu_spec(data: SPMVData) -> GPUKernelSpec:
    """CSR-scalar SpMV: one thread per row; warp time tracks its longest
    row (intra-warp divergence), computed from the real row lengths."""
    m = data.matrix
    lengths = m.row_lengths()
    total_warps = (m.n_rows + WARP_SIZE - 1) // WARP_SIZE

    def profile(warp: int) -> WarpProfile:
        rows = lengths[warp * WARP_SIZE:(warp + 1) * WARP_SIZE]
        if len(rows) == 0:
            return WarpProfile(instructions=4, mem_ops=[])
        longest = int(rows.max())
        mean = float(rows.mean())
        # SIMT lockstep: every lane walks `longest` iterations
        instructions = 8 + longest * 10
        # each iteration: col idx + value (coalesced-ish) + x gather
        mem_ops = [(8, False)] * longest + [(1, True)]
        active = mean / longest if longest else 1.0
        return WarpProfile(instructions=instructions, mem_ops=mem_ops,
                           active_lane_ratio=active, mlp=2)

    return GPUKernelSpec(
        name="spmv.gpu",
        total_warps=total_warps,
        warps_per_tb=WARPS_PER_TB,
        warp_profile=profile,
        regs_per_thread=24,
    )
