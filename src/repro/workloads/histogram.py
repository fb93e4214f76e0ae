"""HISTO workload (§IV-B): histogram of 16M int32 into 256 or 4096 bins.

M2NDP builds per-unit partial histograms in the NDP-unit-scope scratchpad
(32 partials device-wide); a GPU must keep a partial per *threadblock*
(hundreds), whose merges amplify global traffic and add per-block
synchronization — the Fig 6b effect, and the reason HISTO4096 is M2NDP's
largest win over GPU-NDP(Iso-Area) (5.48x, §IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.api import pack_args
from repro.host.gpu import (WARP_SIZE, WARPS_PER_TB, GPUKernelSpec,
                            WarpProfile)
from repro.kernels.histogram import HISTOGRAM
from repro.workloads.base import NDPRunResult, Platform, rng

#: Scratchpad bytes the kernel needs: bins live at offset 0x100.
def scratchpad_bytes(nbins: int) -> int:
    return 0x100 + nbins * 4


@dataclass
class HistogramData:
    values: np.ndarray
    nbins: int
    reference: np.ndarray


def generate(elements: int, nbins: int, salt: int = 0) -> HistogramData:
    if nbins & (nbins - 1):
        raise ValueError(f"nbins must be a power of two, got {nbins}")
    gen = rng(salt + nbins)
    values = gen.integers(0, 1 << 30, elements, dtype=np.int32)
    reference = np.bincount(values & (nbins - 1), minlength=nbins)
    return HistogramData(values=values, nbins=nbins,
                         reference=reference.astype(np.int64))


def run_ndp(platform: Platform, data: HistogramData,
            kernel: str = HISTOGRAM) -> NDPRunResult:
    runtime = platform.runtime
    input_addr = runtime.alloc_array(data.values)
    bins_addr = runtime.alloc(data.nbins * 4)
    start_bytes = platform.stats.get("cxl_dram.bytes")

    instance = runtime.run_kernel(
        kernel,
        input_addr,
        input_addr + data.values.nbytes,
        args=pack_args(data.nbins, bins_addr),
        scratchpad_bytes=scratchpad_bytes(data.nbins),
        name=f"histo{data.nbins}",
    )
    produced = runtime.read_array(bins_addr, np.int32, data.nbins)
    correct = bool(np.array_equal(produced.astype(np.int64), data.reference))

    return NDPRunResult(
        name=f"histo{data.nbins}",
        runtime_ns=instance.runtime_ns,
        correct=correct,
        instructions=instance.instructions,
        uthreads=instance.uthreads_done,
        dram_bytes=platform.stats.get("cxl_dram.bytes") - start_bytes,
        extras={
            "spad_bytes": platform.stats.get("ndp.spad_traffic_bytes"),
            "global_bytes": platform.stats.get("ndp.global_traffic_bytes"),
            "global_accesses": platform.stats.get("ndp.global_accesses"),
        },
    )


def gpu_spec(data: HistogramData,
             elements_per_thread: int = 4) -> GPUKernelSpec:
    """CUDA-samples-style histogram: TB-private shared-memory bins, merged
    into global bins when the TB retires.

    The TB-scope shared memory costs show up per warp: zero-initializing
    the private bins, a __syncthreads barrier, and the global-atomic merge
    of ``nbins / threads per TB`` bins per thread (Fig 6b's traffic and the
    HISTO4096 blowup of §IV-C).
    """
    threads = (len(data.values) + elements_per_thread - 1) // elements_per_thread
    total_warps = (threads + WARP_SIZE - 1) // WARP_SIZE
    # per element: load + mask + shift + shared atomic + loop ≈ 6 instrs,
    # plus SIMT index-calculation overhead (§III-D A1)
    instr_per_warp = elements_per_thread * 8
    loads_per_warp = elements_per_thread  # 128 B coalesced = 4 sectors each
    bins_per_thread = max(1, data.nbins // (WARPS_PER_TB * WARP_SIZE))
    # init (shared writes) + merge loop instructions
    overhead_instr = bins_per_thread * 2 + bins_per_thread * 4 + 8
    # merge: each thread's bins_per_thread global atomics; a warp's 32
    # threads touch 32 consecutive bins = 4 sectors per round
    flush_ops = [(4, True)] * bins_per_thread

    def profile(_warp: int) -> WarpProfile:
        return WarpProfile(
            instructions=instr_per_warp + overhead_instr,
            mem_ops=[(4, False)] * loads_per_warp + flush_ops,
            mlp=6,
        )

    return GPUKernelSpec(
        name=f"histo{data.nbins}.gpu",
        total_warps=total_warps,
        warps_per_tb=WARPS_PER_TB,
        warp_profile=profile,
        regs_per_thread=16,
        shared_mem_per_tb=data.nbins * 4,
    )
