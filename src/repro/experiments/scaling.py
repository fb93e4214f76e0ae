"""Cluster scaling experiment: executable §III-I / Fig 12b.

Where :mod:`repro.experiments.fig12` models multi-device scaling
*analytically* (shrink the per-device workload, add an all-reduce term),
this experiment actually instantiates N :class:`M2NDPDevice` expanders
behind a :class:`CXLSwitch` via :class:`~repro.cluster.ClusterRuntime` and
drives them with open-loop tenants on the
:class:`~repro.serve.ServingEngine` (FIFO, one request per launch — the
cluster's raw capacity, no batching or QoS in the way):

* :func:`run_scaling` sweeps 1/2/4/8 devices under saturating vecadd and
  OLAP-scan streams and reports aggregate throughput speedups — the repro
  counterpart of Fig 12b's bars.
* :func:`run_policy_matrix` crosses placement x scheduler at a fixed
  device count, exposing the P2P traffic each combination pays.
"""

from __future__ import annotations

from repro.cluster import make_cluster_platform
from repro.cluster.placement import PLACEMENTS
from repro.cluster.scheduler import SCHEDULERS
from repro.experiments.common import EXPERIMENT_BACKEND, ExperimentResult
from repro.serve import ArrivalSpec, BatchPolicy, ServingEngine, TenantSpec
from repro.workloads.base import scale

#: Offered per-stream load (requests/s) that keeps every device count
#: saturated, so served/span measures capacity, not arrival rate.
SATURATING_RPS = 1e7


def _drive(num_devices: int, placement: str, scheduler: str,
           vec_elements: int, olap_rows: int, requests: int) -> dict:
    platform = make_cluster_platform(
        num_devices=num_devices, placement=placement, scheduler=scheduler,
        backend=EXPERIMENT_BACKEND,
    )
    arrivals = ArrivalSpec("poisson", rate_rps=SATURATING_RPS,
                           requests=requests)
    report = ServingEngine(platform, [
        TenantSpec("vecadd", "vecadd", arrivals=arrivals, size=vec_elements),
        TenantSpec("olap", "olap", arrivals=arrivals, size=olap_rows),
    ], scheduler="fifo", batch=BatchPolicy(max_batch=1, max_wait_ns=0.0),
        monitoring=False).run()
    return {
        "correct": report.correct,
        "vec_rps": report.tenant("vecadd").throughput_rps,
        "olap_rps": report.tenant("olap").throughput_rps,
        "agg_rps": report.throughput_rps,
        "p50_ns": report.p50_ns,
        "p95_ns": report.p95_ns,
        "p99_ns": report.p99_ns,
        "p2p_bytes": platform.stats.get("cluster.p2p_prefetch_bytes"),
        "switch_p2p_bytes": platform.stats.get("switch.p2p_bytes"),
    }


def run_scaling(scale_name: str = "tiny",
                device_counts: tuple[int, ...] = (1, 2, 4, 8),
                placement: str = "interleaved",
                scheduler: str = "locality",
                requests: int = 16) -> ExperimentResult:
    """Aggregate-throughput scaling of the real cluster subsystem."""
    preset = scale(scale_name)
    result = ExperimentResult(
        "scaling",
        f"Cluster scaling ({placement}/{scheduler}, scale={scale_name})",
    )
    vec_elements = preset.elements
    olap_rows = preset.rows
    baseline: dict | None = None
    for n in device_counts:
        row = _drive(n, placement, scheduler, vec_elements, olap_rows,
                     requests)
        if baseline is None:
            baseline = row
        agg_speedup = row["agg_rps"] / baseline["agg_rps"]
        result.add(
            devices=n,
            vec_speedup=row["vec_rps"] / baseline["vec_rps"],
            olap_speedup=row["olap_rps"] / baseline["olap_rps"],
            agg_speedup=agg_speedup,
            p50_ns=row["p50_ns"],
            p95_ns=row["p95_ns"],
            p99_ns=row["p99_ns"],
            correct=row["correct"],
        )
        result.headline[f"agg_speedup_x{n}"] = agg_speedup
        result.headline[f"p95_ns_x{n}"] = row["p95_ns"]
    speedups = result.column("agg_speedup")
    result.headline["agg_speedup_step_min"] = min(
        b / a for a, b in zip(speedups, speedups[1:]))
    result.headline["correct"] = all(result.column("correct"))
    result.notes = (
        "aggregate L2 capacity lets bandwidth-bound streams scale "
        "superlinearly here"
    )
    return result


def run_policy_matrix(num_devices: int = 4,
                      scale_name: str = "tiny",
                      requests: int = 12) -> ExperimentResult:
    """Placement x scheduler cross: throughput and switch P2P traffic."""
    preset = scale(scale_name)
    result = ExperimentResult(
        "scaling-policies",
        f"Placement x scheduler at {num_devices} devices",
    )
    for placement in PLACEMENTS:
        for scheduler in SCHEDULERS:
            row = _drive(num_devices, placement, scheduler,
                         preset.elements, preset.rows, requests)
            result.add(
                placement=placement,
                scheduler=scheduler,
                agg_rps=row["agg_rps"],
                p95_ns=row["p95_ns"],
                p2p_bytes=row["switch_p2p_bytes"],
                correct=row["correct"],
            )
    def p2p_max(axis: str, policy: str) -> float:
        return max(row["p2p_bytes"] for row in result.rows
                   if row[axis] == policy)

    result.headline = {
        "locality_p2p_bytes_max": p2p_max("scheduler", "locality"),
        "replicated_p2p_bytes_max": p2p_max("placement", "replicated"),
        "correct": all(result.column("correct")),
    }
    result.notes = (
        "locality never pays P2P; ownership-blind policies pay switch "
        "traffic whenever their chunk assignment misses the shard owner"
    )
    return result


if __name__ == "__main__":
    print(run_scaling().render())
    print()
    print(run_policy_matrix().render())
