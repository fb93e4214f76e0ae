"""Fig 11: M2func deep-dive.

(a) P95 latency-throughput curves for KVS_A under the three offload
mechanisms: the direct-MMIO register pair serializes kernels and saturates
orders of magnitude earlier.

(b) M2func's benefit with CXL.mem latency *equal* to CXL.io (600 ns both):
the advantage that remains is purely fewer round trips and concurrency.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.host.offload import make_offload_path, timeline
from repro.workloads import kvstore
from repro.workloads.base import make_platform, scale


def run_fig11a(scale_name: str = "small",
               interarrival_sweep: tuple[float, ...] = (
                   8_000.0, 4_000.0, 2_000.0, 1_000.0, 500.0),
               ) -> ExperimentResult:
    preset = scale(scale_name)
    result = ExperimentResult(
        "fig11a", "KVS_A P95 latency vs offered load by offload mechanism"
    )
    for interarrival in interarrival_sweep:
        data = kvstore.kvs_a(preset.kv_items, preset.kv_requests,
                             interarrival_ns=interarrival)
        row = {"offered_mrps": 1e3 / interarrival}
        for mech in ("m2func", "cxl_io_rb", "cxl_io_dr"):
            platform = make_platform(queue_capacity=1 << 16)
            run = kvstore.run_ndp(platform, data, make_offload_path(mech))
            elapsed = platform.sim.now
            row[f"{mech}_p95_us"] = run.p95_ns / 1e3
            row[f"{mech}_mrps"] = run.throughput_rps(elapsed) / 1e6
        result.add(**row)
    heavy = max(result.rows, key=lambda row: row["offered_mrps"])
    result.headline = {
        "kvs_throughput_gain": heavy["m2func_mrps"] / heavy["cxl_io_dr_mrps"],
        "heavy_dr_over_m2func_p95": (heavy["cxl_io_dr_p95_us"]
                                     / heavy["m2func_p95_us"]),
    }
    result.notes = (
        "kvs_throughput_gain is read at the sweep's highest offered load; "
        "M2func is not saturated there, so it is a lower bound")
    return result


def run_fig11b(kernel_runtimes_ns: dict[str, float] | None = None,
               equal_latency_ns: float = 600.0) -> ExperimentResult:
    """Latency-bound comparison at equal 600 ns one-way CXL.mem/CXL.io.

    Uses the Fig 5 timeline model with x = y = 300 ns (one-way, so a 600 ns
    round trip each) applied to measured kernel runtimes.
    """
    kernels = kernel_runtimes_ns if kernel_runtimes_ns is not None else {
        "SPMV": 50_000.0, "PGRANK": 40_000.0, "SSSP": 60_000.0,
        "KVS_A": 770.0, "DLRM-B4": 1_600.0,
    }
    one_way = equal_latency_ns / 2.0
    result = ExperimentResult(
        "fig11b", "M2func vs CXL.io at equal link latency (600 ns LtU)"
    )
    for name, z in kernels.items():
        rb = timeline("cxl_io_rb", z, one_way, one_way).total_ns
        dr = timeline("cxl_io_dr", z, one_way, one_way).total_ns
        m2 = timeline("m2func", z, one_way, one_way).total_ns
        result.add(workload=name,
                   vs_rb=rb / m2,
                   vs_dr=dr / m2)
        result.headline[f"vs_rb_{name}"] = rb / m2
    result.headline["latency_gain_max"] = max(result.column("vs_rb"))
    result.notes = "latency only: the throughput gains are fig11a's"
    return result
