"""Fig 1: motivation — (a) roofline of local vs CXL memory placement,
(b) impact of load-to-use latency on KVS_A P95 latency."""

from __future__ import annotations

from repro.analysis.roofline import fig1a_table, max_slowdown, mean_slowdown
from repro.experiments.common import EXPERIMENT_BACKEND, ExperimentResult
from repro.workloads import kvstore
from repro.workloads.base import make_platform, scale


def run_fig1a() -> ExperimentResult:
    result = ExperimentResult(
        "fig1a", "Roofline: workload performance, local vs CXL memory"
    )
    for row in fig1a_table():
        result.add(**row)
    result.headline = {
        "max_slowdown": max_slowdown(),
        "avg_slowdown": mean_slowdown(),
        "min_slowdown": min(result.column("slowdown")),
    }
    return result


def run_fig1b(scale_name: str = "small",
              interarrival_ns: float = 2_000.0) -> ExperimentResult:
    """Baseline KVS_A P95 latency at LtU 75 (local), 150 and 600 ns."""
    preset = scale(scale_name)
    data = kvstore.kvs_a(preset.kv_items, preset.kv_requests,
                         interarrival_ns=interarrival_ns)
    result = ExperimentResult(
        "fig1b", "KVS_A P95 latency vs memory load-to-use latency"
    )
    p95_by_ltu: dict[float, float] = {}
    for ltu in (75.0, 150.0, 600.0):
        platform = make_platform(backend=EXPERIMENT_BACKEND)
        run = kvstore.run_baseline(platform, data, ltu_ns=ltu)
        p95_by_ltu[ltu] = run.p95_ns
    local = p95_by_ltu[75.0]
    for ltu, p95 in p95_by_ltu.items():
        label = "local" if ltu == 75.0 else "cxl"
        result.add(memory=f"{label}_LtU_{int(ltu)}ns", p95_ns=p95,
                   normalized=p95 / local)
        result.headline[f"p95_ratio_{int(ltu)}"] = p95 / local
    return result
