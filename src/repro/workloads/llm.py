"""LLM generation-phase workload (§IV-B): OPT-2.7B / OPT-30B token
generation with weights in CXL memory.

With batch size 1, generating one token is a chain of GEMVs over every
weight matrix (QKV, attention projection, two FFN layers) plus the KV
cache — memory-bound streaming of the whole model per token.  We simulate
a *scaled-down* transformer layer faithfully (real GEMV kernel, real data)
and extrapolate to the full model size by the weight-byte ratio; since
numerator and denominator scale identically for NDP and baselines, the
paper's speedups are preserved.

Model shapes from [143]:
  OPT-2.7B: 32 layers, hidden 2560, ffn 4x
  OPT-30B:  48 layers, hidden 7168, ffn 4x
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.api import pack_args
from repro.host.gpu import (WARP_SIZE, WARPS_PER_TB, GPUKernelSpec,
                            WarpProfile)
from repro.kernels.gemv import GEMV_F32
from repro.workloads.base import NDPRunResult, Platform, rng


FFN_MULT = 4        # both OPT models' FFN width over their hidden size
CONTEXT = 1024      # the tokens their KV cache holds


@dataclass(frozen=True)
class OPTModel:
    name: str
    layers: int
    hidden: int

    @property
    def weight_bytes_per_layer(self) -> int:
        h = self.hidden
        # QKV (3 h*h) + attention out (h*h) + FFN up (4h*h) + FFN down (h*4h)
        return (3 * h * h + h * h + 2 * FFN_MULT * h * h) * 4

    @property
    def total_weight_bytes(self) -> int:
        return self.layers * self.weight_bytes_per_layer

    @property
    def kv_cache_bytes(self) -> int:
        return 2 * self.layers * CONTEXT * self.hidden * 4


OPT_2_7B = OPTModel(name="OPT-2.7B", layers=32, hidden=2560)
OPT_30B = OPTModel(name="OPT-30B", layers=48, hidden=7168)


@dataclass
class GEMVData:
    """One scaled GEMV standing in for a transformer layer's matrices."""

    weights: np.ndarray      # [n_rows, dim] f32
    x: np.ndarray            # [dim] f32
    reference: np.ndarray    # [n_rows] f32
    model: OPTModel
    sim_bytes: int

    @property
    def scale_factor(self) -> float:
        """Extrapolation ratio: full-model bytes / simulated bytes."""
        return (self.model.total_weight_bytes + self.model.kv_cache_bytes) / self.sim_bytes


def generate(model: OPTModel, sim_hidden: int, sim_layers: int,
             salt: int = 0) -> GEMVData:
    """Scaled-down weights: ``sim_layers`` layers of hidden ``sim_hidden``
    flattened into one GEMV with the same byte count."""
    gen = rng(salt + model.layers)
    per_layer_rows = 3 * sim_hidden + sim_hidden + 2 * FFN_MULT * sim_hidden
    n_rows = per_layer_rows * sim_layers
    weights = gen.normal(0.0, 0.05, (n_rows, sim_hidden)).astype(np.float32)
    x = gen.normal(0.0, 1.0, sim_hidden).astype(np.float32)
    reference = (weights.astype(np.float64) @ x.astype(np.float64)).astype(np.float32)
    return GEMVData(weights=weights, x=x, reference=reference, model=model,
                    sim_bytes=weights.nbytes)


def run_ndp(platform: Platform, data: GEMVData) -> NDPRunResult:
    runtime = platform.runtime
    n_rows, dim = data.weights.shape
    w_addr = runtime.alloc_array(data.weights)
    x_addr = runtime.alloc_array(data.x)
    out_addr = runtime.alloc(n_rows * 4)
    start_bytes = platform.stats.get("cxl_dram.bytes")

    instance = runtime.run_kernel(
        GEMV_F32,
        out_addr,
        out_addr + n_rows * 4,        # pool = output vector, one row each
        args=pack_args(w_addr, x_addr, dim),
        stride=4,
        name=f"{data.model.name}.gemv",
    )
    produced = runtime.read_array(out_addr, np.float32, n_rows)
    correct = bool(np.allclose(produced, data.reference, rtol=2e-2, atol=2e-2))

    sim_ns = instance.runtime_ns
    return NDPRunResult(
        name=f"opt.{data.model.name}",
        runtime_ns=sim_ns,
        correct=correct,
        instructions=instance.instructions,
        uthreads=instance.uthreads_done,
        dram_bytes=platform.stats.get("cxl_dram.bytes") - start_bytes,
        extras={
            "token_ns_extrapolated": sim_ns * data.scale_factor,
            "scale_factor": data.scale_factor,
            "global_accesses": platform.stats.get("ndp.global_accesses"),
        },
    )


def gpu_spec(data: GEMVData) -> GPUKernelSpec:
    """Row-per-thread GEMV: a warp owns 32 weight rows, so it must stream
    32 * dim * 4 bytes — one 128 B coalesced load per dim step."""
    n_rows, dim = data.weights.shape
    total_warps = (n_rows + WARP_SIZE - 1) // WARP_SIZE
    loads_per_warp = (WARP_SIZE * dim * 4) // 128    # whole-warp row traffic

    def profile(_warp: int) -> WarpProfile:
        return WarpProfile(
            instructions=8 + loads_per_warp * 5,
            mem_ops=[(4, False)] * loads_per_warp + [(1, True)],
            mlp=8,
        )

    return GPUKernelSpec(
        name=f"{data.model.name}.gpu",
        total_warps=total_warps,
        warps_per_tb=WARPS_PER_TB,
        warp_profile=profile,
        regs_per_thread=32,
    )
