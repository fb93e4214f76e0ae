"""Shared experiment plumbing: result containers and paper reference data.

Every experiment returns an :class:`ExperimentResult`: ``rows`` are plain
dicts, ``headline`` holds the values the figure claims rest on.  The
paper's numbers are written once, in ``PAPER_REFERENCE``;
:meth:`ExperimentResult.scorecard` joins a result's headline to them and
``benchmarks/figures.py`` commits the join as ``FIDELITY.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Headline numbers from the paper, keyed by experiment id then by the
#: ``ExperimentResult.headline`` key the driver reports them under.
PAPER_REFERENCE = {
    "fig1a": {"max_slowdown": 9.9, "avg_slowdown": 6.3},
    "fig1b": {"p95_ratio_150": 2.2, "p95_ratio_600": 7.4},
    "fig5": {"comm_reduction_min": 0.33, "comm_reduction_max": 0.75,
             "m2func_reduction_vs_rb_min": 0.17,
             "m2func_reduction_vs_rb_max": 0.37},
    "fig6a": {"active_ratio_gain_min": 0.159, "active_ratio_gain_max": 0.509},
    "fig6b": {"global_traffic_ratio": 0.90, "spad_traffic_ratio": 0.44},
    "fig10a": {
        "evaluate_speedup_gmean": 73.4,
        "evaluate_speedup_max": 128.0,
        "cpu_ndp_gap": 1.342,          # M2NDP over CPU-NDP
        "ideal_gap": 1.103,            # Ideal over M2NDP (within 10.3 %)
        "dram_bw_utilization": 0.907,
    },
    "fig10b": {"p95_improvement": 1.382, "vs_cxl_io_rb": 4.79},
    "fig10c": {
        "m2ndp_gmean": 6.35,
        "m2ndp_max": 9.71,
        "gpu_ndp_iso_flops_gmean": 3.25,
        "gpu_ndp_4x_gmean": 5.12,
        "gpu_ndp_16x_gmean": 5.11,
        "gpu_ndp_iso_area_gmean": 4.49,
        "nsu_gmean": 0.97,
    },
    "fig11a": {"kvs_throughput_gain": 47.3},    # M2func over CXL.io_DR
    "fig11b": {"latency_gain_max": 1.63},
    "fig12a": {"wo_m2func_max": 2.41, "wo_finegrained_max": 1.506,
               "wo_addr_opt_max": 1.202},
    "fig12b": {"speedup_8dev_dlrm": 7.84, "speedup_8dev_opt30b": 7.69,
               "speedup_8dev_opt27b": 6.45},
    "fig13a-freq": {"slowdown_1ghz": 0.90, "speedup_3ghz": 1.025},
    "fig13a-ltu": {"gmean_2xltu": 13.1, "gmean_4xltu": 19.4},
    "fig13b": {"impact_min": 0.031, "impact_max": 0.265},
    "fig14a": {"dsa_gap_avg": 0.065},
    "fig14b": {"speedup_8mem_min": 6.39, "speedup_8mem_max": 7.38},
    "fig15-olap": {"energy_reduction_olap": 0.839,
                   "energy_reduction_olap_max": 0.879,
                   "perf_per_energy_max": 106.0, "perf_per_energy_avg": 32.0},
    "fig15-gpu": {"energy_reduction_gpu": 0.782,
                  "energy_reduction_vs_iso_area": 0.314},
    "instr-savings": {"static_instr_reduction_min": 0.0328,
                      "static_instr_reduction_max": 0.176},
    "area": {"ndp_unit_mm2": 0.83, "total_mm2": 26.4, "iso_area_sms": 16.2,
             "rf_reduction": 0.81, "alu_reduction": 0.69},
}

#: A reproduced value *holds* when it is within this fraction of the
#: paper's (ROADMAP A1's target band) — one constant for every key.
TOLERANCE = 0.25


@dataclass
class ExperimentResult:
    """Output of one figure/table reproduction."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""
    #: The values the figure's claims rest on: every key of
    #: ``PAPER_REFERENCE[experiment_id]`` plus the derived values
    #: ``benchmarks/figures.py`` gates (GMEANs, row minima, correctness).
    headline: dict[str, float] = field(default_factory=dict)

    def add(self, **row) -> None:
        self.rows.append(row)

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows if key in row]

    def scorecard(self) -> list[dict]:
        """One row per paper number of this experiment: the headline value
        reproduced for it, their ratio, and whether it holds."""
        rows = []
        for key, paper in PAPER_REFERENCE.get(self.experiment_id, {}).items():
            ratio = self.headline[key] / paper
            rows.append({
                "key": key, "paper": paper, "reproduced": self.headline[key],
                "ratio": ratio,
                "holds": 1.0 - TOLERANCE <= ratio <= 1.0 + TOLERANCE,
            })
        return rows

    def render(self) -> str:
        if not self.rows:
            return f"[{self.experiment_id}] {self.title}: (no rows)"
        keys = list(dict.fromkeys(key for row in self.rows for key in row))
        header = " | ".join(f"{k:>14}" for k in keys)
        lines = [f"[{self.experiment_id}] {self.title}", header,
                 "-" * len(header)]
        for row in self.rows:
            lines.append(" | ".join(
                f"{v:>14.3f}" if isinstance(v, float) else f"{str(v):>14}"
                for v in (row.get(k, "") for k in keys)))
        for card in self.scorecard():
            lines.append(
                f"paper: {card['key']} {card['paper']:g}, reproduced "
                f"{card['reproduced']:.4g} (x{card['ratio']:.3f}, "
                f"{'holds' if card['holds'] else 'MISS'})")
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)
