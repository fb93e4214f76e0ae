"""Fig 10: main results.

(a) OLAP filter Evaluate: baseline CPU vs CPU-NDP vs M2NDP vs Ideal NDP.
(b) KVStore P95 latency across offload mechanisms.
(c) GPU workloads: baseline GPU, GPU-NDP (Iso-FLOPS / 4x / 16x / Iso-Area),
    M2NDP, and NSU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.speedup import SpeedupRow, SpeedupTable
from repro.area import model as area
from repro.config import (GPU_NDP_16X_FLOPS_SMS, GPU_NDP_4X_FLOPS_SMS,
                          GPU_NDP_ISO_FLOPS_SMS, default_system)
from repro.experiments.common import ExperimentResult
from repro.host.gpu import GPUDevice, GPUKernelSpec, make_gpu_baseline, make_gpu_ndp
from repro.host.nsu import NSUModel, NSUWorkload
from repro.host.offload import make_offload_path
from repro.sim.engine import Simulator
from repro.sim.stats import geometric_mean
from repro.workloads import dlrm, graph, histogram, kvstore, llm, spmv
from repro.workloads import olap
from repro.workloads.base import NDPRunResult, make_platform, scale

# ---------------------------------------------------------------------------
# Fig 10a — OLAP
# ---------------------------------------------------------------------------

def run_fig10a(scale_name: str = "small") -> ExperimentResult:
    preset = scale(scale_name)
    result = ExperimentResult(
        "fig10a", "OLAP Evaluate speedups over host CPU baseline"
    )
    for query in ("q14", "q6", "q1_1", "q1_2", "q1_3"):
        data = olap.generate(query, preset.rows)
        platform = make_platform()
        ndp = olap.run_ndp_evaluate(platform, data)
        base = olap.baseline_evaluate_ns(data)
        cpu_ndp = olap.cpu_ndp_evaluate_ns(data)
        ideal = olap.ideal_ndp_evaluate_ns(data)
        row = {
            "query": query,
            "cpu_ndp": base / cpu_ndp,
            "m2ndp": base / ndp.runtime_ns,
            "ideal": base / ideal,
            "correct": ndp.correct,
            "bw_gbps": ndp.dram_bandwidth,
        }
        phases = olap.full_query_phases_ns(data, ndp.runtime_ns, base)
        row["norm_runtime"] = phases["total"] / phases["baseline_total"]
        result.add(**row)
    cpu_ndp, m2ndp, ideal = (geometric_mean(result.column(key))
                             for key in ("cpu_ndp", "m2ndp", "ideal"))
    result.headline = {
        "evaluate_speedup_gmean": m2ndp,
        "evaluate_speedup_max": max(result.column("m2ndp")),
        "cpu_ndp_gmean": cpu_ndp,
        "ideal_gmean": ideal,
        "cpu_ndp_gap": m2ndp / cpu_ndp,
        "ideal_gap": ideal / m2ndp,
        "dram_bw_utilization": (
            sum(result.column("bw_gbps")) / len(result.rows)
            / default_system().cxl_dram.total_bw_bytes_per_ns),
        "norm_runtime_max": max(result.column("norm_runtime")),
        "correct": all(result.column("correct")),
    }
    return result


# ---------------------------------------------------------------------------
# Fig 10b — KVStore P95 latency by offload mechanism
# ---------------------------------------------------------------------------

def run_fig10b(scale_name: str = "small",
               interarrival_ns: float = 2_000.0) -> ExperimentResult:
    preset = scale(scale_name)
    result = ExperimentResult(
        "fig10b", "KVStore P95 latency improvement over host baseline"
    )
    for maker, mix in ((kvstore.kvs_a, "KVS_A"), (kvstore.kvs_b, "KVS_B")):
        data = maker(preset.kv_items, preset.kv_requests,
                     interarrival_ns=interarrival_ns)
        base_platform = make_platform()
        base = kvstore.run_baseline(base_platform, data)
        row = {"mix": mix, "baseline_p95_ns": base.p95_ns}
        for mech in ("cxl_io_dr", "cxl_io_rb", "m2func"):
            platform = make_platform()
            run = kvstore.run_ndp(platform, data, make_offload_path(mech))
            row[f"{mech}_improvement"] = base.p95_ns / run.p95_ns
            if mech == "m2func":
                row["correct"] = run.correct
        result.add(**row)
    m2func, rb, dr = (result.column(f"{mech}_improvement")
                      for mech in ("m2func", "cxl_io_rb", "cxl_io_dr"))
    result.headline = {
        "p95_improvement": sum(m2func) / len(m2func),
        "vs_cxl_io_rb": sum(m / r for m, r in zip(m2func, rb)) / len(rb),
        "m2func_improvement_min": min(m2func),
        "cxl_io_rb_improvement_max": max(rb),
        "m2func_over_dr_min": min(m / d for m, d in zip(m2func, dr)),
        "correct": all(result.column("correct")),
    }
    return result


# ---------------------------------------------------------------------------
# Fig 10c — GPU workloads across seven configurations
# ---------------------------------------------------------------------------

@dataclass
class GPUWorkloadCase:
    """One Fig 10c workload: its NDP run and its GPU kernel description."""

    name: str
    run_ndp: Callable[[], NDPRunResult]
    gpu_specs: Callable[[], list[GPUKernelSpec]]


def _run_gpu(device_factory: Callable[[Simulator], GPUDevice],
             specs: list[GPUKernelSpec]) -> float:
    """Run kernels back to back on a fresh GPU; returns total ns."""
    sim = Simulator()
    gpu = device_factory(sim)
    at = 0.0
    for spec in specs:
        result = gpu.launch(spec, at_ns=at)
        sim.run()
        at = result.complete_ns
    return at


def _gpu_configs(system) -> dict[str, Callable[[Simulator], GPUDevice]]:
    return {
        "gpu_baseline": lambda sim: make_gpu_baseline(sim, system),
        "gpu_ndp_iso_flops": lambda sim: make_gpu_ndp(
            sim, system, GPU_NDP_ISO_FLOPS_SMS),
        "gpu_ndp_4x": lambda sim: make_gpu_ndp(sim, system, GPU_NDP_4X_FLOPS_SMS),
        "gpu_ndp_16x": lambda sim: make_gpu_ndp(sim, system, GPU_NDP_16X_FLOPS_SMS),
        "gpu_ndp_iso_area": lambda sim: make_gpu_ndp(
            sim, system, area.iso_area_sm_count()),
    }


def build_cases(scale_name: str = "small") -> list[GPUWorkloadCase]:
    preset = scale(scale_name)
    cases: list[GPUWorkloadCase] = []

    for nbins in (256, 4096):
        data = histogram.generate(preset.elements, nbins)
        cases.append(GPUWorkloadCase(
            name=f"HISTO{nbins}",
            run_ndp=(lambda d=data: histogram.run_ndp(make_platform(), d)),
            gpu_specs=(lambda d=data: [histogram.gpu_spec(d)]),
        ))

    spmv_data = spmv.generate(preset.nodes, preset.avg_degree)
    cases.append(GPUWorkloadCase(
        name="SPMV",
        run_ndp=(lambda d=spmv_data: spmv.run_ndp(make_platform(), d)),
        gpu_specs=(lambda d=spmv_data: [spmv.gpu_spec(d)]),
    ))

    graph_data = graph.generate(preset.nodes, preset.avg_degree)
    cases.append(GPUWorkloadCase(
        name="PGRANK",
        run_ndp=(lambda d=graph_data: graph.run_ndp_pagerank(
            make_platform(), d, iterations=1)),
        gpu_specs=(lambda d=graph_data: [graph.gpu_spec_pagerank(d)]),
    ))
    # SSSP converges over many sweeps; a smaller graph keeps total work
    # comparable to the single-pass workloads (the paper similarly uses a
    # smaller input for SSSP than PGRANK, Table V).
    sssp_data = graph.generate(max(preset.nodes // 4, 128), preset.avg_degree)
    cases.append(GPUWorkloadCase(
        name="SSSP",
        run_ndp=(lambda d=sssp_data: graph.run_ndp_sssp(make_platform(), d)),
        gpu_specs=(lambda d=sssp_data: [graph.gpu_spec_sssp(d)]),
    ))

    for batch in (4, preset.dlrm_batch_cap):
        data = dlrm.generate(preset.dlrm_rows, batch=batch, dim=128,
                             lookups=40)
        cases.append(GPUWorkloadCase(
            name=f"DLRM-B{batch}",
            run_ndp=(lambda d=data: dlrm.run_ndp(make_platform(), d)),
            gpu_specs=(lambda d=data: [dlrm.gpu_spec(d)]),
        ))

    for model, hidden in ((llm.OPT_2_7B, preset.llm_hidden),
                          (llm.OPT_30B, int(preset.llm_hidden * 1.25))):
        data = llm.generate(model, sim_hidden=hidden,
                            sim_layers=preset.llm_layers)
        cases.append(GPUWorkloadCase(
            name=model.name,
            run_ndp=(lambda d=data: llm.run_ndp(make_platform(), d)),
            gpu_specs=(lambda d=data: [llm.gpu_spec(d)]),
        ))

    return cases


def run_fig10c(scale_name: str = "small") -> ExperimentResult:
    system = default_system()
    gpu_configs = _gpu_configs(system)
    nsu = NSUModel()

    table = SpeedupTable("fig10c")
    result = ExperimentResult(
        "fig10c", "GPU workload speedups over host GPU baseline"
    )
    correctness = True
    for case in build_cases(scale_name):
        ndp = case.run_ndp()
        correctness = correctness and ndp.correct
        specs = case.gpu_specs()
        sweeps = ndp.instance_count
        per_config: dict[str, float] = {}
        for cfg_name, factory in gpu_configs.items():
            per_config[cfg_name] = _run_gpu(factory, specs * sweeps)
        baseline_ns = per_config.pop("gpu_baseline")
        per_config["m2ndp"] = ndp.runtime_ns
        accesses = max(
            int(ndp.extras.get("global_accesses", ndp.dram_bytes // 32)), 1
        )
        per_config["nsu"] = nsu.runtime_ns(NSUWorkload(
            ndp_accesses=accesses,
            read_bytes=int(ndp.dram_bytes),
            result_bytes=1024,
        ))
        table.add(SpeedupRow(workload=case.name, baseline_ns=baseline_ns,
                             config_ns=per_config))

    for row in table.rows:
        cells = {"workload": row.workload}
        cells.update(row.speedups())
        result.add(**cells)
    gmeans = {cfg: table.gmean(cfg) for cfg in table.configs()}
    result.headline = {f"{cfg}_gmean": value for cfg, value in gmeans.items()}
    result.headline.update(
        m2ndp_max=max(result.column("m2ndp")),
        iso_flops_over_16x=gmeans["gpu_ndp_iso_flops"] / gmeans["gpu_ndp_16x"],
        correct=correctness,
    )
    result.add(workload="GMEAN", **gmeans)
    return result
