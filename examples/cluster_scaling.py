#!/usr/bin/env python3
"""Cluster scaling: one workload, 1..4 CXL-M2NDP expanders behind a switch.

The paper's §III-I scales M2NDP by software-partitioning data across
several expanders and launching one kernel per device (Fig 12b).  The
``repro.cluster`` subsystem automates that:

1. ``make_cluster_platform(num_devices=N)`` builds N devices behind a
   CXL switch on one simulator;
2. cluster allocations carry a *placement* (interleaved / blocked /
   replicated shards across device HDMs);
3. one logical ``run_kernel`` is split by the fan-out scheduler into
   per-device sub-launches (locality follows the shards; off-owner chunks
   pay P2P through the switch);
4. the serving engine replays open-loop tenant streams (here FIFO, one
   request per launch) and reports p50/p95/p99 latency plus aggregate
   throughput.

Run:  PYTHONPATH=src python examples/cluster_scaling.py
"""

import numpy as np

from repro.cluster import make_cluster_platform
from repro.host.api import pack_args
from repro.kernels.vecadd import VECADD
from repro.serve import ArrivalSpec, BatchPolicy, ServingEngine, TenantSpec

N = 1 << 17          # elements per vector (1 MiB)


def one_kernel(num_devices: int, placement: str) -> float:
    """VectorAdd across the cluster; returns the simulated makespan."""
    platform = make_cluster_platform(num_devices=num_devices,
                                     placement=placement, backend="batched")
    runtime = platform.runtime
    a = np.arange(N, dtype=np.int64)
    b = a[::-1].copy()
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(b)
    addr_c = runtime.alloc(a.nbytes)
    instance = runtime.run_kernel(
        VECADD, addr_a, addr_a + a.nbytes, args=pack_args(addr_b, addr_c)
    )
    assert np.array_equal(runtime.read_array(addr_c, np.int64, N), a + b)
    return instance.runtime_ns


def main() -> None:
    print(f"VectorAdd over {N} elements, interleaved placement:")
    single = one_kernel(1, "interleaved")
    for devices in (1, 2, 4):
        ns = single if devices == 1 else one_kernel(devices, "interleaved")
        print(f"  {devices} device(s): {ns:12,.0f} ns simulated "
              f"({single / ns:.2f}x)")

    print("\nmulti-tenant open-loop traffic on 4 devices:")
    platform = make_cluster_platform(num_devices=4, backend="batched")
    report = ServingEngine(platform, [
        TenantSpec("kv-tenant", "kvstore", size=1024,
                   arrivals=ArrivalSpec(rate_rps=2e6, requests=200)),
        TenantSpec("olap-tenant", "olap", size=1 << 14,
                   arrivals=ArrivalSpec(rate_rps=5e5, requests=16)),
        TenantSpec("batch-tenant", "vecadd", size=1 << 13,
                   arrivals=ArrivalSpec(rate_rps=5e5, requests=16)),
    ], scheduler="fifo", batch=BatchPolicy(max_batch=1, max_wait_ns=0.0),
        monitoring=False).run()
    print(report.render())
    assert report.correct


if __name__ == "__main__":
    main()
