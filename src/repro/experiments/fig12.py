"""Fig 12: ablation study and multi-device scaling.

(a) Ablations: M2func → CXL.io ring buffer; fine-grained µthread spawning →
coarse (all 16 slots of a sub-core at once, GPU-threadblock-like); scalar
address optimization → SIMT-style index arithmetic (extra per-µthread
instructions).

(b) Scaling to 1-8 CXL-M2NDP devices with SW-partitioned data (§III-I):
per-device kernels shrink linearly; OPT adds an all-reduce over the switch.
"""

from __future__ import annotations

import re

from repro.cxl.switch import CXLSwitch
from repro.experiments.common import ExperimentResult
from repro.host.offload import CXL_IO_ONE_WAY_NS
from repro.kernels.dlrm import DLRM_SLS
from repro.kernels.graph import PAGERANK_ITER
from repro.kernels.histogram import HISTOGRAM
from repro.workloads import dlrm, graph, histogram, llm
from repro.workloads.base import make_platform, scale

#: Extra per-µthread instructions when the memory-mapped x1/x2 ABI is
#: replaced by threadblock-style index arithmetic (§III-D A1).
ADDR_CALC_EXTRA_INSTRS = 4


def _inflate_addressing(source: str) -> str:
    """Insert SIMT-style index-arithmetic instructions at each body start.

    ``add x0, x0, x0`` retires without architectural effect (x0 is
    hardwired) but charges dispatch and ALU slots exactly like the mul/add
    chains a threadblock-indexed kernel would execute.
    """
    filler = "\n".join(["    add x0, x0, x0"] * ADDR_CALC_EXTRA_INSTRS)
    return re.sub(r"(?m)^\.body\s*$", ".body\n" + filler, source)


def run_fig12a(scale_name: str = "small") -> ExperimentResult:
    preset = scale(scale_name)
    result = ExperimentResult(
        "fig12a", "Ablation: runtime normalized to full M2NDP"
    )

    # workload -> (kernel source, run(platform, kernel source))
    cases = {
        "HISTO4096": (HISTOGRAM,
                      lambda p, k: histogram.run_ndp(p, histogram.generate(
                          preset.elements // 2, 4096), kernel=k)),
        "DLRM-B32": (DLRM_SLS,
                     lambda p, k: dlrm.run_ndp(p, dlrm.generate(
                         preset.dlrm_rows, batch=32, dim=128, lookups=24),
                         kernel=k)),
        "PGRANK": (PAGERANK_ITER,
                   lambda p, k: graph.run_ndp_pagerank(p, graph.generate(
                       preset.nodes // 2, preset.avg_degree), iterations=1,
                       kernel=k)),
    }
    # Runs on whichever engine the platform resolves.  At `small` scale
    # neither engine shows the spawn-granularity effect, and the addressing
    # ablation's extra instructions barely move the batched engine (see
    # ``notes``).
    for workload, (kernel, run) in cases.items():
        base = run(make_platform(), kernel)
        coarse = run(make_platform(spawn_granularity=16), kernel)
        # w/o addr opt: the same run with the kernel source inflated
        no_addr = run(make_platform(), _inflate_addressing(kernel))
        # w/o M2func: same kernel, launched through the ring buffer — adds
        # the Fig 5b pre/post overheads to every launch.
        rb_overhead = 8 * CXL_IO_ONE_WAY_NS
        result.add(
            workload=workload,
            wo_m2func=(base.runtime_ns + rb_overhead * base.instance_count)
            / base.runtime_ns,
            wo_finegrained=coarse.runtime_ns / base.runtime_ns,
            wo_addr_opt=no_addr.runtime_ns / base.runtime_ns,
            correct=base.correct and coarse.correct and no_addr.correct,
        )
    for ablation in ("wo_m2func", "wo_finegrained", "wo_addr_opt"):
        result.headline[f"{ablation}_min"] = min(result.column(ablation))
        result.headline[f"{ablation}_max"] = max(result.column(ablation))
    result.headline["correct"] = all(result.column("correct"))
    result.notes = (
        "at small scale neither engine reproduces the fine-grained "
        "ablation: w/o fine-grained reads 1.000 on the batched engine and "
        "1.000-1.012 on the interpreter (backend=\"interpreter\"), "
        "against the paper's up to 1.506; w/o addr opt reads 1.0001-1.0016 "
        "batched and 0.868-1.067 on the interpreter, where DLRM runs faster "
        "with four extra instructions per µthread (unexplained); w/o M2func "
        "is an analytic add over the base runtime"
    )
    return result


def static_instruction_savings() -> ExperimentResult:
    """§III-D claim: memory-mapped µthreads cut the static instruction
    count vs threadblock-index address calculation."""
    from repro.isa.assembler import assemble_kernel
    from repro.kernels import KERNEL_LIBRARY

    result = ExperimentResult(
        "instr-savings", "Static instruction reduction from memory mapping"
    )
    for name in ("eval_range_i32", "histogram", "spmv_csr", "pagerank_iter",
                 "sssp_relax", "dlrm_sls", "gemv_f32", "kvs_get"):
        base = assemble_kernel(KERNEL_LIBRARY[name], name=name)
        inflated = assemble_kernel(
            _inflate_addressing(KERNEL_LIBRARY[name]), name=name
        )
        saved = 1.0 - base.static_instruction_count / inflated.static_instruction_count
        result.add(kernel=name,
                   mapped_instrs=base.static_instruction_count,
                   indexed_instrs=inflated.static_instruction_count,
                   reduction=saved)
    result.headline = {
        "static_instr_reduction_min": min(result.column("reduction")),
        "static_instr_reduction_max": max(result.column("reduction")),
    }
    return result


# ---------------------------------------------------------------------------
# Fig 12b — multi-device scaling
# ---------------------------------------------------------------------------

def run_fig12b(scale_name: str = "small") -> ExperimentResult:
    preset = scale(scale_name)
    result = ExperimentResult(
        "fig12b", "Scaling with multiple CXL-M2NDP devices (model parallel)"
    )

    workloads = {
        "DLRM-B256": ("dlrm", "dlrm", dlrm.generate(
            preset.dlrm_rows, batch=preset.dlrm_batch_cap * 4, dim=128,
            lookups=24)),
        "OPT-2.7B": ("opt27b", "llm", llm.generate(
            llm.OPT_2_7B, sim_hidden=preset.llm_hidden,
            sim_layers=preset.llm_layers)),
        "OPT-30B": ("opt30b", "llm", llm.generate(
            llm.OPT_30B, sim_hidden=int(preset.llm_hidden * 1.25),
            sim_layers=preset.llm_layers)),
    }
    for name, (key, kind, data) in workloads.items():
        single = _partitioned_run(kind, data, fraction=1.0)
        row = {"workload": name}
        for n in (1, 2, 4, 8):
            per_device = _partitioned_run(kind, data, fraction=1.0 / n)
            total = per_device + _allreduce_ns(kind, data, n)
            row[f"x{n}"] = single / total
        result.add(**row)
        result.headline[f"speedup_8dev_{key}"] = row["x8"]
    for n in (1, 2, 8):
        result.headline[f"x{n}_min"] = min(result.column(f"x{n}"))
    result.headline["x4_over_x2_min"] = min(
        row["x4"] / row["x2"] for row in result.rows)
    result.notes = (
        "at bench scale the fixed launch/drain costs and the all-reduce cap "
        "the 8-device point; near-linear needs paper-scale kernels")
    return result


def _partitioned_run(kind: str, data, fraction: float) -> float:
    """Run one device's share of the partitioned workload."""
    platform = make_platform()
    if kind == "dlrm":
        batch = max(1, int(data.batch * fraction))
        part = dlrm.generate(data.table.shape[0], batch=batch,
                             dim=data.dim, lookups=data.lookups)
        return dlrm.run_ndp(platform, part).runtime_ns
    rows = data.weights.shape[0]
    part_rows = max(32, int(rows * fraction) // 8 * 8)
    sub = llm.GEMVData(
        weights=data.weights[:part_rows],
        x=data.x,
        reference=data.reference[:part_rows],
        model=data.model,
        sim_bytes=data.weights[:part_rows].nbytes,
    )
    return llm.run_ndp(platform, sub).runtime_ns


def _allreduce_ns(kind: str, data, num_devices: int) -> float:
    """All-reduce of partial activations over the CXL switch (P2P)."""
    if kind != "llm" or num_devices <= 1:
        return 0.0
    switch = CXLSwitch(num_downstream=num_devices)
    # scaled to the simulated model slice, not the full model
    sim_hidden = data.weights.shape[1]
    sim_layers = max(1, data.weights.shape[0] // (12 * sim_hidden))
    bytes_per_hop = 2 * sim_layers * sim_hidden * 4
    done = 0.0
    for step in range(num_devices - 1):
        done = switch.peer_to_peer(done, step % num_devices,
                                   (step + 1) % num_devices, bytes_per_hop)
    return done
