"""Graph analytics workloads (§IV-B): PGRANK and SSSP on CSR graphs.

Pannotia-style: PageRank iterates a two-body NDP kernel (contribution then
gather — the multi-body barrier); SSSP repeats Bellman-Ford relaxation
sweeps until the device-side changed-flag stays clear.  Graphs come from
the same power-law generator as SpMV, transposed for PageRank's
incoming-edge gathers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.api import pack_args
from repro.host.gpu import (WARP_SIZE, WARPS_PER_TB, GPUKernelSpec,
                            WarpProfile)
from repro.kernels.graph import PAGERANK_ITER, SSSP_RELAX
from repro.workloads.base import NDPRunResult, Platform, rng
from repro.workloads.spmv import CSRMatrix, generate_csr

INF_DIST = 0x3FFFFFFF
DAMPING = 0.85


@dataclass
class GraphData:
    """CSR of incoming edges (for PGRANK) and outgoing edges (for SSSP)."""

    in_csr: CSRMatrix
    out_csr: CSRMatrix
    out_degree: np.ndarray      # i32
    weights: np.ndarray         # i32, aligned with out_csr.col_idx
    n_nodes: int


def generate(n_nodes: int, avg_degree: int, salt: int = 0) -> GraphData:
    out_csr = generate_csr(n_nodes, avg_degree, salt)
    in_csr = _transpose(out_csr)
    gen = rng(salt + 7)
    weights = gen.integers(1, 64, out_csr.nnz, dtype=np.int32)
    out_degree = np.diff(out_csr.row_ptr).astype(np.int32)
    return GraphData(in_csr=in_csr, out_csr=out_csr, out_degree=out_degree,
                     weights=weights, n_nodes=n_nodes)


def _transpose(csr: CSRMatrix) -> CSRMatrix:
    """CSR transpose (counting sort by destination)."""
    counts = np.bincount(csr.col_idx, minlength=csr.n_cols)
    row_ptr = np.zeros(csr.n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    col_idx = np.empty(csr.nnz, dtype=np.int32)
    cursor = row_ptr[:-1].copy()
    for src in range(csr.n_rows):
        for k in range(csr.row_ptr[src], csr.row_ptr[src + 1]):
            dst = csr.col_idx[k]
            col_idx[cursor[dst]] = src
            cursor[dst] += 1
    return CSRMatrix(row_ptr=row_ptr, col_idx=col_idx,
                     values=np.zeros(csr.nnz, dtype=np.float32),
                     n_rows=csr.n_cols, n_cols=csr.n_rows)


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------

def reference_pagerank_iter(data: GraphData, rank: np.ndarray) -> np.ndarray:
    contrib = np.where(data.out_degree > 0, rank / np.maximum(data.out_degree, 1), 0.0)
    new_rank = np.empty_like(rank)
    csr = data.in_csr
    teleport = (1.0 - DAMPING) / data.n_nodes
    for v in range(data.n_nodes):
        s = contrib[csr.col_idx[csr.row_ptr[v]:csr.row_ptr[v + 1]]].sum()
        new_rank[v] = teleport + DAMPING * s
    return new_rank


def run_ndp_pagerank(platform: Platform, data: GraphData,
                     iterations: int = 1,
                     kernel: str = PAGERANK_ITER) -> NDPRunResult:
    runtime = platform.runtime
    csr = data.in_csr
    n = data.n_nodes
    rp_addr = runtime.alloc_array(csr.row_ptr)
    ci_addr = runtime.alloc_array(csr.col_idx)
    deg_addr = runtime.alloc_array(data.out_degree)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    rank_addr = runtime.alloc_array(rank)
    contrib_addr = runtime.alloc(n * 8)
    out_addr = runtime.alloc(n * 8)
    start_bytes = platform.stats.get("cxl_dram.bytes")

    teleport = np.float64((1.0 - DAMPING) / n).view(np.uint64)
    damping = np.float64(DAMPING).view(np.uint64)

    reference = rank.copy()
    total_ns = 0.0
    instructions = 0
    uthreads = 0
    src_addr, dst_addr = rank_addr, out_addr
    for _ in range(iterations):
        instance = runtime.run_kernel(
            kernel,
            rp_addr,
            rp_addr + n * 8,
            args=pack_args(ci_addr, src_addr, contrib_addr, deg_addr,
                           dst_addr, n, int(teleport), int(damping)),
            name="pgrank",
        )
        total_ns += instance.runtime_ns
        instructions += instance.instructions
        uthreads += instance.uthreads_done
        reference = reference_pagerank_iter(data, reference)
        src_addr, dst_addr = dst_addr, src_addr

    produced = runtime.read_array(src_addr, np.float64, n)
    correct = bool(np.allclose(produced, reference, rtol=1e-9, atol=1e-12))

    return NDPRunResult(
        name="pgrank",
        runtime_ns=total_ns,
        correct=correct,
        instance_count=iterations,
        instructions=instructions,
        uthreads=uthreads,
        dram_bytes=platform.stats.get("cxl_dram.bytes") - start_bytes,
        extras={"global_accesses": platform.stats.get("ndp.global_accesses")},
    )


# ---------------------------------------------------------------------------
# SSSP (Bellman-Ford sweeps)
# ---------------------------------------------------------------------------

def reference_sssp(data: GraphData, source: int = 0) -> np.ndarray:
    dist = np.full(data.n_nodes, INF_DIST, dtype=np.int64)
    dist[source] = 0
    csr = data.out_csr
    for _ in range(data.n_nodes):
        changed = False
        for u in range(data.n_nodes):
            if dist[u] >= INF_DIST:
                continue
            for k in range(csr.row_ptr[u], csr.row_ptr[u + 1]):
                v = csr.col_idx[k]
                nd = dist[u] + data.weights[k]
                if nd < dist[v]:
                    dist[v] = nd
                    changed = True
        if not changed:
            break
    return dist


def run_ndp_sssp(platform: Platform, data: GraphData, source: int = 0,
                 max_sweeps: int = 64) -> NDPRunResult:
    runtime = platform.runtime
    csr = data.out_csr
    n = data.n_nodes
    rp_addr = runtime.alloc_array(csr.row_ptr)
    ci_addr = runtime.alloc_array(csr.col_idx)
    w_addr = runtime.alloc_array(data.weights)
    dist = np.full(n, INF_DIST, dtype=np.int32)
    dist[source] = 0
    dist_addr = runtime.alloc_array(dist)
    flag_addr = runtime.alloc(8)
    start_bytes = platform.stats.get("cxl_dram.bytes")

    total_ns = 0.0
    instructions = 0
    uthreads = 0
    sweeps = 0
    kid = runtime.register_kernel(SSSP_RELAX, name="sssp")
    for _ in range(max_sweeps):
        runtime.device.physical.write_u64(flag_addr, 0)
        handle = runtime.launch_kernel(
            kid, rp_addr, rp_addr + n * 8,
            args=pack_args(ci_addr, w_addr, dist_addr, n, flag_addr),
            sync=True,
        )
        instance = runtime.instances_of(handle)
        total_ns += instance.runtime_ns
        instructions += instance.instructions
        uthreads += instance.uthreads_done
        sweeps += 1
        if runtime.device.physical.read_u64(flag_addr) == 0:
            break

    produced = runtime.read_array(dist_addr, np.int32, n).astype(np.int64)
    correct = bool(np.array_equal(produced, reference_sssp(data, source)))

    return NDPRunResult(
        name="sssp",
        runtime_ns=total_ns,
        correct=correct,
        instance_count=sweeps,
        instructions=instructions,
        uthreads=uthreads,
        dram_bytes=platform.stats.get("cxl_dram.bytes") - start_bytes,
        extras={"sweeps": sweeps,
                "global_accesses": platform.stats.get("ndp.global_accesses")},
    )


# ---------------------------------------------------------------------------
# GPU baselines
# ---------------------------------------------------------------------------

def gpu_spec_pagerank(data: GraphData) -> GPUKernelSpec:
    """Node-parallel gather: one thread per node, warp time tracks its
    longest in-edge list (from the actual transposed CSR)."""
    lengths = np.diff(data.in_csr.row_ptr)
    total_warps = (data.n_nodes + WARP_SIZE - 1) // WARP_SIZE

    def profile(warp: int) -> WarpProfile:
        rows = lengths[warp * WARP_SIZE:(warp + 1) * WARP_SIZE]
        if len(rows) == 0:
            return WarpProfile(instructions=4, mem_ops=[])
        longest = int(rows.max())
        mean = float(rows.mean())
        instructions = 12 + longest * 9
        mem_ops = [(8, False)] * longest + [(1, True)]
        return WarpProfile(instructions=instructions, mem_ops=mem_ops,
                           active_lane_ratio=mean / longest if longest else 1.0,
                           mlp=2)

    return GPUKernelSpec(
        name="pgrank.gpu",
        total_warps=total_warps,
        warps_per_tb=WARPS_PER_TB,
        warp_profile=profile,
        regs_per_thread=28,
    )


def gpu_spec_sssp(data: GraphData) -> GPUKernelSpec:
    lengths = np.diff(data.out_csr.row_ptr)
    total_warps = (data.n_nodes + WARP_SIZE - 1) // WARP_SIZE

    def profile(warp: int) -> WarpProfile:
        rows = lengths[warp * WARP_SIZE:(warp + 1) * WARP_SIZE]
        if len(rows) == 0:
            return WarpProfile(instructions=4, mem_ops=[])
        longest = int(rows.max())
        mean = float(rows.mean())
        instructions = 10 + longest * 11
        mem_ops = [(8, False)] * longest
        return WarpProfile(instructions=instructions, mem_ops=mem_ops,
                           active_lane_ratio=mean / longest if longest else 1.0,
                           mlp=2)

    return GPUKernelSpec(
        name="sssp.gpu",
        total_warps=total_warps,
        warps_per_tb=WARPS_PER_TB,
        warp_profile=profile,
        regs_per_thread=24,
    )
