"""Energy model (§IV-A/IV-E): McPAT/AccelWattch-style per-event energies.

Energy = dynamic (per-event costs times the simulator's event counts) plus
static power integrated over runtime, including the idle host during NDP —
the paper's accounting.  Constants follow the paper's cited sources where
given (8 pJ/bit CXL link energy [38]) and CACTI/DSENT-class estimates at
7 nm elsewhere; FIDELITY.json's ``fig15-*`` rows record the resulting
Fig 15 shapes against the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.stats import StatsRegistry

# Per-event dynamic energies, in picojoules.
PJ_PER_CXL_BIT = 8.0              # [38]
PJ_PER_DRAM_BIT = 4.0             # LPDDR5 access energy class
PJ_PER_NDP_INSTR = 8.0            # small in-order lane + RF access
PJ_PER_GPU_INSTR = 25.0           # SM datapath + operand collectors
PJ_PER_CPU_INSTR = 150.0          # big OoO core average
PJ_PER_SPAD_BYTE = 0.4
PJ_PER_CACHE_BYTE = 0.6

# Static power, in watts.
STATIC_W = {
    "host_cpu": 120.0,
    "host_gpu": 100.0,
    "cxl_mem": 12.0,
    "m2ndp_units": 8.0,        # 32 units at ~0.25 W each
    "gpu_ndp_sm": 2.5,         # per SM inside the device
    "cpu_ndp_core": 3.0,       # per high-end core inside the device
}


@dataclass
class EnergyBreakdown:
    """Joules by component for one run."""

    dynamic_j: float
    static_j: float
    parts: dict[str, float]

    @property
    def total_j(self) -> float:
        return self.dynamic_j + self.static_j

    def perf_per_energy(self, runtime_ns: float) -> float:
        """1 / (time * energy) — relative metric used in Fig 15."""
        return 1.0 / (runtime_ns * 1e-9 * self.total_j)


class EnergyModel:
    """Computes energy for the configurations the paper compares."""

    def ndp_run(self, stats: StatsRegistry, runtime_ns: float,
                host_idle: bool = True) -> EnergyBreakdown:
        """Energy of an M2NDP kernel run from the device's stat counters."""
        seconds = runtime_ns * 1e-9
        parts = {
            "ndp_instr": stats.get("ndp.instructions") * PJ_PER_NDP_INSTR,
            "dram": stats.get("cxl_dram.bytes") * 8 * PJ_PER_DRAM_BIT,
            "scratchpad": stats.get("ndp.spad_traffic_bytes") * PJ_PER_SPAD_BYTE,
            "cxl_link": (stats.get("cxl.down_bytes") + stats.get("cxl.up_bytes"))
            * 8 * PJ_PER_CXL_BIT,
        }
        dynamic = sum(parts.values()) * 1e-12
        static = (STATIC_W["cxl_mem"] + STATIC_W["m2ndp_units"]) * seconds
        if host_idle:
            static += 0.3 * STATIC_W["host_cpu"] * seconds  # idle host floor
        return EnergyBreakdown(dynamic_j=dynamic, static_j=static, parts=parts)

    def host_cpu_run(self, bytes_moved: float, instructions: float,
                     runtime_ns: float) -> EnergyBreakdown:
        """Baseline: host CPU pulling data over the CXL link."""
        seconds = runtime_ns * 1e-9
        parts = {
            "cpu_instr": instructions * PJ_PER_CPU_INSTR,
            "dram": bytes_moved * 8 * PJ_PER_DRAM_BIT,
            "cxl_link": bytes_moved * 8 * PJ_PER_CXL_BIT,
        }
        dynamic = sum(parts.values()) * 1e-12
        static = (STATIC_W["host_cpu"] + STATIC_W["cxl_mem"]) * seconds
        return EnergyBreakdown(dynamic_j=dynamic, static_j=static, parts=parts)

    def host_gpu_run(self, bytes_moved: float, instructions: float,
                     runtime_ns: float) -> EnergyBreakdown:
        seconds = runtime_ns * 1e-9
        parts = {
            "gpu_instr": instructions * PJ_PER_GPU_INSTR,
            "dram": bytes_moved * 8 * PJ_PER_DRAM_BIT,
            "cxl_link": bytes_moved * 8 * PJ_PER_CXL_BIT,
        }
        dynamic = sum(parts.values()) * 1e-12
        static = (STATIC_W["host_gpu"] + STATIC_W["cxl_mem"]) * seconds
        return EnergyBreakdown(dynamic_j=dynamic, static_j=static, parts=parts)

    def gpu_ndp_run(self, bytes_moved: float, instructions: float,
                    runtime_ns: float, num_sms: float) -> EnergyBreakdown:
        seconds = runtime_ns * 1e-9
        parts = {
            "gpu_instr": instructions * PJ_PER_GPU_INSTR,
            "dram": bytes_moved * 8 * PJ_PER_DRAM_BIT,
        }
        dynamic = sum(parts.values()) * 1e-12
        static = (STATIC_W["cxl_mem"] + num_sms * STATIC_W["gpu_ndp_sm"]
                  + 0.3 * STATIC_W["host_gpu"]) * seconds
        return EnergyBreakdown(dynamic_j=dynamic, static_j=static, parts=parts)
