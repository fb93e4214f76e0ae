"""DLRM inference workload (§IV-B): SparseLengthsSum over CXL-resident
embedding tables.

A request gathers ``lookups_per_request`` rows of the embedding table
(indices zipfian-skewed like Criteo traffic) and sums them; batches of 4,
32 and 256 requests bound the kernel grain.  SLS is the CXL-link-bound 80 %
of DLRM inference the paper offloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.api import pack_args
from repro.host.gpu import (WARP_SIZE, WARPS_PER_TB, GPUKernelSpec,
                            WarpProfile)
from repro.kernels.dlrm import DLRM_SLS
from repro.workloads.base import NDPRunResult, Platform, rng

LOOKUPS_PER_REQUEST = 80   # [77]


def zipf_indices(gen: np.random.Generator, n_rows: int, count: int,
                 alpha: float = 1.05) -> np.ndarray:
    """Zipfian-ish row popularity (Criteo-like reuse skew)."""
    raw = gen.zipf(alpha, size=count)
    return ((raw - 1) % n_rows).astype(np.int64)


@dataclass
class DLRMData:
    table: np.ndarray            # [rows, dim] f32
    indices: np.ndarray          # [batch * lookups] i64
    batch: int
    lookups: int
    reference: np.ndarray        # [batch, dim] f32

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def row_bytes(self) -> int:
        return self.dim * 4


def generate(n_rows: int, batch: int, dim: int = 64,
             lookups: int = LOOKUPS_PER_REQUEST, salt: int = 0) -> DLRMData:
    gen = rng(salt + batch)
    table = gen.normal(0.0, 1.0, (n_rows, dim)).astype(np.float32)
    indices = zipf_indices(gen, n_rows, batch * lookups)
    gathered = table[indices.reshape(batch, lookups)]
    reference = gathered.sum(axis=1, dtype=np.float32)
    return DLRMData(table=table, indices=indices, batch=batch,
                    lookups=lookups, reference=reference)


def run_ndp(platform: Platform, data: DLRMData,
            kernel: str = DLRM_SLS) -> NDPRunResult:
    runtime = platform.runtime
    table_addr = runtime.alloc_array(data.table)
    idx_addr = runtime.alloc_array(data.indices)
    out_addr = runtime.alloc(data.batch * data.row_bytes)
    start_bytes = platform.stats.get("cxl_dram.bytes")

    instance = runtime.run_kernel(
        kernel,
        out_addr,
        out_addr + data.batch * data.row_bytes,   # pool = output vectors
        args=pack_args(idx_addr, table_addr, data.lookups, data.row_bytes),
        name=f"dlrm_b{data.batch}",
    )
    produced = runtime.read_array(out_addr, np.float32,
                                  data.batch * data.dim)
    produced = produced.reshape(data.batch, data.dim)
    correct = bool(np.allclose(produced, data.reference, rtol=1e-3, atol=1e-3))

    return NDPRunResult(
        name=f"dlrm_b{data.batch}",
        runtime_ns=instance.runtime_ns,
        correct=correct,
        instructions=instance.instructions,
        uthreads=instance.uthreads_done,
        dram_bytes=platform.stats.get("cxl_dram.bytes") - start_bytes,
        extras={"launch_to_done_ns": instance.total_latency_ns,
                "global_accesses": platform.stats.get("ndp.global_accesses")},
    )


def gpu_spec(data: DLRMData) -> GPUKernelSpec:
    """One warp gathers/accumulates 32 f32 lanes of one request's output;
    each lookup is one 128 B (4-sector) coalesced load."""
    warps_per_request = max(1, data.dim // WARP_SIZE)
    total_warps = data.batch * warps_per_request

    def profile(_warp: int) -> WarpProfile:
        return WarpProfile(
            instructions=10 + data.lookups * 7,
            mem_ops=[(4, False)] * data.lookups + [(4, True)],
            mlp=1,
        )

    return GPUKernelSpec(
        name=f"dlrm_b{data.batch}.gpu",
        total_warps=total_warps,
        warps_per_tb=WARPS_PER_TB,
        warp_profile=profile,
        regs_per_thread=24,
    )
