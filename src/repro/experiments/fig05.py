"""Fig 5: NDP offloading timelines — M2func vs CXL.io ring buffer vs
direct MMIO, with the paper's example latencies (x=75 ns, y=500 ns,
z=6.4 µs DLRM(SLS)-B32 kernel)."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.host.offload import timeline


def run_fig5(kernel_ns: float = 6_400.0, x_ns: float = 75.0,
             y_ns: float = 500.0) -> ExperimentResult:
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
    # The communication reduction counts round trips at equal per-hop
    # latency (2 one-ways vs 3 and 8); the end-to-end reduction uses the
    # real x/y latencies.
    equal = {name: timeline(name, 0.0, y_ns, y_ns)
             for name in ("m2func", "cxl_io_rb", "cxl_io_dr")}
    comm_red = {
        name: 1.0 - equal["m2func"].overhead_ns / tl.overhead_ns
        for name, tl in equal.items() if name != "m2func"
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
