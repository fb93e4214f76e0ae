"""Fig 6: microarchitectural comparisons against GPU SMs.

(a) Ratio of active contexts over time for PGRANK: µthread slots refill
individually while SM warp slots are held until a whole threadblock
drains, so the NDP unit sustains a higher active ratio.

(b) Global and scratchpad traffic for HISTO: the NDP-unit-scope scratchpad
keeps one partial histogram per unit (32 total), while CUDA keeps one per
threadblock and merges each through global memory.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import GPU_NDP_ISO_AREA_SMS
from repro.experiments.common import ExperimentResult
from repro.host.gpu import WARP_SIZE, make_gpu_ndp
from repro.workloads import graph, histogram
from repro.workloads.base import make_platform, scale


def run_fig6a(scale_name: str = "small", steps: int = 10) -> ExperimentResult:
    """Active-context ratio over normalized time, NDP vs SM (TB sizes)."""
    preset = scale(scale_name)
    data = graph.generate(preset.nodes, preset.avg_degree)

    # M2NDP: run one PageRank iteration, sample per-unit occupancy.
    # Unpinned since the SIMT engine: the masked walk records per-phase
    # occupancy ratios into the same samplers the per-µthread engine
    # feeds, so the figure runs on the default backend.
    platform = make_platform()
    ndp_run = graph.run_ndp_pagerank(platform, data, iterations=1)
    end = max(platform.sim.now, 1.0)
    ndp_series = platform.device.total_active_ratio_series(0.0, end, steps)
    ndp_mean = _weighted_mean(platform, end)

    result = ExperimentResult(
        "fig6a", "Active context ratio over time (PGRANK main kernel)"
    )
    means = {"ndp_unit": ndp_mean}
    for warps in (1, 2, 4):            # 32- to 128-thread blocks
        gpu_platform = make_platform()
        gpu = make_gpu_ndp(gpu_platform.sim, gpu_platform.system,
                           GPU_NDP_ISO_AREA_SMS)
        spec = replace(graph.gpu_spec_pagerank(data), warps_per_tb=warps)
        gpu.launch(spec, at_ns=0.0)
        gpu_platform.sim.run()
        gend = max(gpu_platform.sim.now, 1.0)
        sm_mean = sum(
            sm.sampler.time_weighted_mean(gpu.launch_overhead_ns, gend)
            for sm in gpu.sms
        ) / len(gpu.sms)
        means[f"sm_tb{warps * WARP_SIZE}"] = sm_mean

    for idx, (t, ratio) in enumerate(ndp_series):
        result.add(time_frac=idx / max(steps - 1, 1), ndp_ratio=ratio)
    for name, mean in means.items():
        result.add(config=name, mean_active_ratio=mean)
    gains = [means["ndp_unit"] / means[f"sm_tb{tb}"] - 1.0
             for tb in (32, 64, 128)]
    result.headline = {
        "active_ratio_gain_min": min(gains),
        "active_ratio_gain_max": max(gains),
        "ndp_active_ratio": means["ndp_unit"],
        "correct": ndp_run.correct,
    }
    return result


def _weighted_mean(platform, end_ns: float) -> float:
    values = [
        unit.occupancy.sampler.time_weighted_mean(0.0, end_ns)
        for unit in platform.device.units
    ]
    return sum(values) / len(values)


def run_fig6b(scale_name: str = "small", nbins: int = 256,
              gpu_tbs: int = 128) -> ExperimentResult:
    """HISTO global/scratchpad traffic: M2NDP vs GPU-NDP(Iso-Area)."""
    preset = scale(scale_name)
    data = histogram.generate(preset.elements, nbins)
    platform = make_platform()
    run = histogram.run_ndp(platform, data)

    elements = preset.elements
    input_bytes = elements * 4
    # M2NDP measured traffic:
    ndp_global = run.extras["global_bytes"]
    ndp_spad = run.extras["spad_bytes"]

    # GPU-NDP (Iso-Area) analytic traffic: persistent TB-private shared
    # histograms merged through global atomics per TB.
    gpu_global = input_bytes + gpu_tbs * nbins * 4 * 2    # merge read+write
    gpu_shared = (
        elements * 2 * 4                 # shared atomic = read + write
        + gpu_tbs * nbins * 4            # per-TB zero-init
        + gpu_tbs * nbins * 4            # merge reads from shared
    )

    result = ExperimentResult(
        "fig6b", f"HISTO{nbins} traffic: GPU-NDP(Iso-Area) vs M2NDP"
    )
    result.add(config="gpu_ndp", global_bytes=float(gpu_global),
               spad_bytes=float(gpu_shared), normalized_global=1.0,
               normalized_spad=1.0)
    result.add(
        config="m2ndp",
        global_bytes=ndp_global,
        spad_bytes=ndp_spad,
        normalized_global=ndp_global / gpu_global,
        normalized_spad=ndp_spad / gpu_shared,
    )
    result.headline = {
        "global_traffic_ratio": ndp_global / gpu_global,
        "spad_traffic_ratio": ndp_spad / gpu_shared,
        "correct": run.correct,
    }
    return result
