"""Fig 12: ablation study and multi-device scaling.

(a) Ablations: M2func → CXL.io ring buffer; fine-grained µthread spawning →
coarse (all 16 slots of a sub-core at once, GPU-threadblock-like); scalar
address optimization → SIMT-style index arithmetic (extra per-µthread
instructions).

(b) Scaling to 1-8 CXL-M2NDP devices with SW-partitioned data (§III-I):
each workload runs unmodified on a cluster of replicated expanders behind
one switch; OPT adds an all-reduce over that switch.
"""

from __future__ import annotations

import re

from repro.cluster import make_cluster_platform
from repro.experiments.common import ExperimentResult
from repro.host.offload import timeline
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
        rb_overhead = timeline("cxl_io_rb", 0.0).overhead_ns
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

    dlrm_data = dlrm.generate(preset.dlrm_rows,
                              batch=preset.dlrm_batch_cap * 4, dim=128,
                              lookups=24)
    workloads = {
        f"DLRM-B{dlrm_data.batch}": ("dlrm", dlrm.run_ndp, dlrm_data),
        "OPT-2.7B": ("opt27b", llm.run_ndp, llm.generate(
            llm.OPT_2_7B, sim_hidden=preset.llm_hidden,
            sim_layers=preset.llm_layers)),
        "OPT-30B": ("opt30b", llm.run_ndp, llm.generate(
            llm.OPT_30B, sim_hidden=int(preset.llm_hidden * 1.25),
            sim_layers=preset.llm_layers)),
    }
    for name, (key, run, data) in workloads.items():
        runtime_ns = {}
        for n in (1, 2, 4, 8):
            # Replicated: the data is read-only (placement.py's case for
            # model weights), and no other placement splits the pool over
            # all n devices at `small`: OPT's 12 KB output pool, cut at
            # the 4 KB granule, spans 3 devices blocked or interleaved.
            platform = make_cluster_platform(n, placement="replicated")
            ns = run(platform, data).runtime_ns
            if run is llm.run_ndp:
                # ring all-reduce after the launch, sized to the model slice
                rows, hidden = data.weights.shape
                hop_bytes = 2 * max(1, rows // (12 * hidden)) * hidden * 4
                start = done = platform.sim.now
                for step in range(n - 1):
                    done = platform.runtime.switch.peer_to_peer(
                        done, step, step + 1, hop_bytes)
                ns += done - start
            runtime_ns[n] = ns
        result.add(workload=name, **{f"x{n}": runtime_ns[1] / ns
                                     for n, ns in runtime_ns.items()})
        result.headline[f"speedup_8dev_{key}"] = result.rows[-1]["x8"]
    for n in (1, 2, 8):
        result.headline[f"x{n}_min"] = min(result.column(f"x{n}"))
    result.headline["x4_over_x2_min"] = min(
        row["x4"] / row["x2"] for row in result.rows)
    result.notes = (
        "x1 is the 1-device cluster run; at bench scale the fixed launch "
        "cost and, for OPT, the ring all-reduce cap the 8-device point "
        "near 2x, where the scaling driver's streams run superlinear "
        "because aggregate L2 capacity helps bandwidth-bound sweeps; "
        "P2P is charged for pool bytes only, so DLRM's table gathers and "
        "OPT's weight reads never cross the switch")
    return result
