"""Fig 5: NDP offloading timelines — M2func vs CXL.io ring buffer vs
direct MMIO, with the paper's example latencies (x, half the CXL.mem
load-to-use; y, the ``COMPARATORS`` row ``cxl_io``; z = 6.4 µs, a
DLRM(SLS)-B32 kernel)."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.host.offload import HOPS, timeline


def run_fig5(kernel_ns: float = 6_400.0, x_ns: float | None = None,
             y_ns: float | None = None) -> ExperimentResult:
    result = ExperimentResult(
        "fig5", "Offloading scheme timelines (z + overhead decomposition)"
    )
    lines = {name: timeline(name, kernel_ns, x_ns, y_ns)
             for name in ("m2func", "cxl_io_rb", "cxl_io_dr")}
    for name, tl in lines.items():
        result.add(
            mechanism=name,
            pre_kernel_ns=tl.pre_kernel_ns,
            post_kernel_ns=tl.post_kernel_ns,
            overhead_ns=tl.overhead_ns,
            total_ns=tl.total_ns,
        )
    m2 = lines["m2func"]
    # The communication reduction counts one-way trips, as if every trip
    # took the same time; the end-to-end reduction uses the real x and y.
    trips = {name: before + after for name, (_, before, after) in HOPS.items()}
    comm_red = {
        name: 1.0 - trips["m2func"] / count
        for name, count in trips.items() if name != "m2func"
    }
    e2e_red = {
        name: 1.0 - m2.total_ns / tl.total_ns
        for name, tl in lines.items() if name != "m2func"
    }
    result.headline = {
        "comm_reduction_min": min(comm_red.values()),
        "comm_reduction_max": max(comm_red.values()),
        "m2func_reduction_vs_rb_min": min(e2e_red.values()),
        "m2func_reduction_vs_rb_max": max(e2e_red.values()),
    }
    return result
