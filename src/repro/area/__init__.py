"""Hardware cost model (§IV-F)."""

from repro.area.model import (
    AreaBreakdown,
    alu_area_reduction_vs_sm,
    iso_area_sm_count,
    m2ndp_total_area,
    ndp_unit_area,
    register_file_reduction_vs_sm,
)

__all__ = [
    "AreaBreakdown",
    "alu_area_reduction_vs_sm",
    "iso_area_sm_count",
    "m2ndp_total_area",
    "ndp_unit_area",
    "register_file_reduction_vs_sm",
]
