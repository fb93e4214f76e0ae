"""Fig 15: energy and performance-per-energy, normalized to the baselines;
§IV-F: hardware cost.

OLAP queries compare M2NDP against the host CPU; GPU workloads against the
host GPU and GPU-NDP(Iso-Area).  Dynamic energy comes from simulator event
counts, static energy from runtime (§IV-A energy methodology)."""

from __future__ import annotations

from repro.area import model as area
from repro.config import COMPARATORS
from repro.energy.model import EnergyModel
from repro.experiments.common import ExperimentResult
from repro.experiments.fig10 import _gpu_configs, _run_gpu, build_cases
from repro.workloads import olap
from repro.config import default_system
from repro.workloads.base import make_platform, scale


def run_fig15_olap(scale_name: str = "small") -> ExperimentResult:
    """Energy for TPC-H Q6 and SSB Q1.3 Evaluate (the paper's T6 / S1_3)."""
    preset = scale(scale_name)
    model = EnergyModel()
    result = ExperimentResult(
        "fig15-olap", "OLAP Evaluate energy: host CPU vs M2NDP"
    )
    for query in ("q6", "q1_3"):
        data = olap.generate(query, preset.rows)
        platform = make_platform()
        ndp = olap.run_ndp_evaluate(platform, data)
        base_ns = olap.baseline_evaluate_ns(data)
        bytes_moved = data.rows * data.query.bytes_per_row

        base_energy = model.comparator_run(
            "cpu", bytes_moved=bytes_moved,
            instructions=(data.rows
                          * COMPARATORS["cpu"]["instr_per_row_predicate"]
                          * len(data.query.predicates)),
            runtime_ns=base_ns,
        )
        ndp_energy = model.ndp_run(platform.stats, ndp.runtime_ns)
        result.add(
            query=query,
            baseline_j=base_energy.total_j,
            m2ndp_j=ndp_energy.total_j,
            energy_reduction=1.0 - ndp_energy.total_j / base_energy.total_j,
            perf_per_energy_gain=(
                ndp_energy.perf_per_energy(ndp.runtime_ns)
                / base_energy.perf_per_energy(base_ns)
            ),
        )
    reductions = result.column("energy_reduction")
    gains = result.column("perf_per_energy_gain")
    result.headline = {
        "energy_reduction_olap": sum(reductions) / len(reductions),
        "energy_reduction_olap_max": max(reductions),
        "energy_reduction_olap_min": min(reductions),
        "perf_per_energy_max": max(gains),
        "perf_per_energy_avg": sum(gains) / len(gains),
        "perf_per_energy_min": min(gains),
    }
    return result


def run_fig15_gpu(scale_name: str = "small",
                  workloads: tuple[str, ...] = ("SPMV", "PGRANK", "DLRM-B4"),
                  ) -> ExperimentResult:
    """Energy for a subset of GPU workloads across three configurations."""
    model = EnergyModel()
    system = default_system()
    configs = _gpu_configs(system)
    result = ExperimentResult(
        "fig15-gpu", "GPU workload energy: baseline vs GPU-NDP(IsoArea) vs M2NDP"
    )
    for case in build_cases(scale_name):
        if case.name not in workloads:
            continue
        ndp = case.run_ndp()
        specs = case.gpu_specs()
        sweeps = ndp.instance_count
        base_ns = _run_gpu(configs["gpu_baseline"], specs * sweeps)
        iso_ns = _run_gpu(configs["gpu_ndp_iso_area"], specs * sweeps)

        instructions = sum(
            spec.warp_profile(0).instructions * spec.total_warps
            for spec in specs
        ) * sweeps
        bytes_moved = max(ndp.dram_bytes, 1.0)

        base_energy = model.comparator_run("gpu", bytes_moved, instructions,
                                           base_ns)
        iso_energy = model.comparator_run("gpu_ndp", bytes_moved,
                                          instructions, iso_ns,
                                          area.iso_area_sm_count())
        # the platform's stats went with run_ndp's platform; the energy
        # model reads the same counters off the result
        ndp_energy = model.ndp_run({
            "ndp.instructions": float(ndp.instructions),
            "cxl_dram.bytes": float(ndp.dram_bytes),
            "ndp.spad_traffic_bytes": float(ndp.extras.get("spad_bytes", 0.0)),
            "cxl.down_bytes": 0.0,
            "cxl.up_bytes": 0.0,
        }, ndp.runtime_ns)

        result.add(
            workload=case.name,
            baseline_j=base_energy.total_j,
            gpu_ndp_iso_area_j=iso_energy.total_j,
            m2ndp_j=ndp_energy.total_j,
            reduction_vs_baseline=1.0 - ndp_energy.total_j / base_energy.total_j,
            reduction_vs_iso_area=1.0 - ndp_energy.total_j / iso_energy.total_j,
        )
    vs_base = result.column("reduction_vs_baseline")
    vs_iso = result.column("reduction_vs_iso_area")
    result.headline = {
        "energy_reduction_gpu": sum(vs_base) / len(vs_base),
        "energy_reduction_gpu_min": min(vs_base),
        "energy_reduction_vs_iso_area": sum(vs_iso) / len(vs_iso),
    }
    return result


def run_area() -> ExperimentResult:
    """§IV-F hardware cost: the area model against the paper's table."""
    result = ExperimentResult("area", "Hardware cost (§IV-F)")
    result.headline = {
        "ndp_unit_mm2": area.ndp_unit_area().total_mm2,
        "total_mm2": area.m2ndp_total_area(),
        "iso_area_sms": area.iso_area_sm_count(),
        "rf_reduction": area.register_file_reduction_vs_sm(),
        "alu_reduction": area.alu_area_reduction_vs_sm(),
    }
    cards = result.scorecard()
    for card in cards:
        result.add(metric=card["key"], measured=card["reproduced"],
                   paper=card["paper"])
    result.headline["ratio_error_max"] = max(
        abs(card["ratio"] - 1.0) for card in cards)
    return result
