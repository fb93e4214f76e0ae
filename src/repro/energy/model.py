"""Energy model (§IV-A/IV-E): McPAT/AccelWattch-style per-event energies.

Energy = dynamic (per-event costs times the simulator's event counts) plus
static power integrated over runtime, including the idle host during NDP —
the paper's accounting.  Every power and per-event energy is a
``config.COMPARATORS`` row: the paper's cited sources where given (8 pJ/bit
CXL link energy [38]) and CACTI/DSENT-class estimates at 7 nm elsewhere;
FIDELITY.json's ``fig15-*`` rows record the resulting Fig 15 shapes against
the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import COMPARATORS
from repro.sim.stats import StatsRegistry


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

    def ndp_run(self, stats: StatsRegistry,
                runtime_ns: float) -> EnergyBreakdown:
        """Energy of an M2NDP kernel run from the device's stat counters,
        with the host CPU idling beside it."""
        ndp, mem = COMPARATORS["m2ndp"], COMPARATORS["cxl_mem"]
        seconds = runtime_ns * 1e-9
        parts = {
            "ndp_instr": stats.get("ndp.instructions") * ndp["pj_per_instr"],
            "dram": stats.get("cxl_dram.bytes") * 8 * mem["pj_per_dram_bit"],
            "scratchpad": (stats.get("ndp.spad_traffic_bytes")
                           * ndp["pj_per_spad_byte"]),
            "cxl_link": (stats.get("cxl.down_bytes") + stats.get("cxl.up_bytes"))
            * 8 * mem["pj_per_cxl_bit"],
        }
        dynamic = sum(parts.values()) * 1e-12
        static = (mem["static_w"] + ndp["static_w"]) * seconds
        # the idle host floor is added after the product (comparator_run
        # adds it inside): the two sums round differently
        static += (mem["idle_host_fraction"] * COMPARATORS["cpu"]["static_w"]
                   * seconds)
        return EnergyBreakdown(dynamic_j=dynamic, static_j=static, parts=parts)

    def comparator_run(self, name: str, bytes_moved: float,
                       instructions: float, runtime_ns: float,
                       num_sms: float = 0) -> EnergyBreakdown:
        """Energy of the ``COMPARATORS`` row ``name``: the host CPU or GPU
        (``"cpu"``, ``"gpu"``) pulling its data over the CXL link, or GPU-NDP
        (``"gpu_ndp"``): ``num_sms`` of its host's SMs inside the device,
        no link traffic, and the host idling."""
        row, mem = COMPARATORS[name], COMPARATORS["cxl_mem"]
        host = COMPARATORS[row.get("host", name)]
        in_device = host is not row
        seconds = runtime_ns * 1e-9
        parts = {
            "instr": instructions * host["pj_per_instr"],
            "dram": bytes_moved * 8 * mem["pj_per_dram_bit"],
            "cxl_link": 0 if in_device else (bytes_moved * 8
                                             * mem["pj_per_cxl_bit"]),
        }
        dynamic = sum(parts.values()) * 1e-12
        host_share = mem["idle_host_fraction"] if in_device else 1
        static = (mem["static_w"] + num_sms * row.get("static_w_per_sm", 0)
                  + host_share * host["static_w"]) * seconds
        return EnergyBreakdown(dynamic_j=dynamic, static_j=static, parts=parts)
