"""cProfile harness over smoke-sized runs: measure before cutting.

Perf PRs against the simulation core must start from a profile, not a
hunch — the PR that introduced this file found 97% of the cluster smoke
point inside a per-sector Python loop that a cumulative-time glance at
``run_kernel`` would have hidden.  This harness profiles one of the smoke
benchmark's workloads and prints the top-N functions by *internal* time
(where the cycles actually go) and by cumulative time (how you got
there).

Usage::

    PYTHONPATH=src python benchmarks/profile.py [point] [--top N]
                                                [--sort RANKING] [-o FILE]

where ``point`` is one of:

* ``cluster`` (default) — 2-device interleaved vecadd, one logical launch
* ``traffic`` — 100-request open-loop vecadd stream on a 2-device cluster
* ``fig10a``  — the TPC-H Q6 "small" OLAP point on the batched backend
* ``kvstore`` — 400 fine-grained KVS_B requests on the batched backend:
  every launch is a one-µthread divergent chain walk through the point
  engine (`repro/exec/point.py`) — profile this before touching it
* ``kvstore-batched`` — scatter-batched KVStore serving (warm + timed
  pass, mirroring the ``kvstore_point`` smoke gate); also reachable as
  ``--preset kvstore-batched``
* ``histo``   — one HISTO4096 launch (phases + scratchpad + vector
  atomics), the bulk-lane SIMT path

``--sort`` picks the ranking(s) printed: ``tottime`` (where the cycles
go), ``cumulative`` (how you got there) or ``both`` (default).
``-o FILE`` additionally dumps raw pstats for ``snakeviz``-style viewers.
"""

from __future__ import annotations

import os
import sys

# This file shadows the stdlib ``profile`` module that ``cProfile``
# imports when the script directory leads sys.path (the documented
# ``python benchmarks/profile.py`` invocation).  Drop it before pulling
# in cProfile so the stdlib module resolves.
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [
    p for p in sys.path if os.path.abspath(p if p else os.getcwd()) != _HERE
]

import argparse
import cProfile
import pstats
import time

import numpy as np
import numpy.ma          # noqa: F401  (numpy itself loads these two on
import numpy.random      # noqa: F401   first use, i.e. mid-profile)

# Every point's modules load here, before the profiler starts: imported
# inside the measured region, ``builtins.compile`` and the import
# machinery lead every ranking.
from repro.cluster import make_cluster_platform
from repro.host.api import pack_args
from repro.host.offload import make_offload_path
from repro.kernels.vecadd import VECADD
from repro.serve import ArrivalSpec, BatchPolicy, ServingEngine, TenantSpec
from repro.workloads import histogram, kvstore, olap
from repro.workloads.base import make_platform, scale


def run_cluster() -> None:
    elements = 1 << 18
    a = (np.arange(elements) * 3).astype(np.int64)
    b = a[::-1].copy()
    platform = make_cluster_platform(num_devices=2, placement="interleaved",
                                     backend="batched")
    runtime = platform.runtime
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(b)
    addr_c = runtime.alloc(a.nbytes)
    runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                       args=pack_args(addr_b, addr_c))


def run_traffic() -> None:
    platform = make_cluster_platform(num_devices=2, placement="interleaved",
                                     backend="batched")
    ServingEngine(platform, [
        TenantSpec("profile", "vecadd",
                   arrivals=ArrivalSpec("poisson", rate_rps=2e5,
                                        requests=100)),
    ], scheduler="fifo", batch=BatchPolicy(max_batch=1, max_wait_ns=0.0),
        monitoring=False).run()


def run_fig10a() -> None:
    preset = scale("small")
    data = olap.generate("q6", preset.rows)
    platform = make_platform(backend="batched")
    olap.run_ndp_evaluate(platform, data)


def run_kvstore() -> None:
    data = kvstore.kvs_b(1024, 400)
    platform = make_platform(backend="batched")
    kvstore.run_ndp(platform, data, make_offload_path("m2func"))
    fallbacks = platform.stats.get("exec.batched_fallbacks")
    if fallbacks:
        raise SystemExit(
            f"kvstore profile point stopped exercising the SIMT engine "
            f"({fallbacks:.0f} interpreter fallbacks)")


def run_histo() -> None:
    data = histogram.generate(1 << 17, 4096)
    platform = make_platform(backend="batched")
    histogram.run_ndp(platform, data)


def run_kvstore_batched() -> None:
    """Scatter-batched KVStore serving: the point engine's trie replay.

    Mirrors the ``kvstore_point`` smoke measurement (warm pass to fill
    the point-path families, then a steady-state pass) — profile this
    before touching ``repro/exec/point.py`` or the scatter serving path.
    """
    platform = make_cluster_platform(num_devices=1, backend="batched")

    def make_engine() -> "ServingEngine":
        tenants = [TenantSpec(
            "kv", "kvstore",
            arrivals=ArrivalSpec("poisson", rate_rps=4e7, requests=300),
            size=512,
        )]
        return ServingEngine(platform, tenants,
                             batch=BatchPolicy(max_batch=16),
                             inflight_per_device=2)

    make_engine().run()     # warm the point-path tries
    make_engine().run()     # steady-state pass (all launches replay)


POINTS = {
    "cluster": run_cluster,
    "traffic": run_traffic,
    "fig10a": run_fig10a,
    "kvstore": run_kvstore,
    "kvstore-batched": run_kvstore_batched,
    "histo": run_histo,
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("point", nargs="?", default="cluster",
                        choices=sorted(POINTS))
    parser.add_argument("--preset", default=None, choices=sorted(POINTS),
                        help="flag-style alternative to the positional "
                             "point (takes precedence when given)")
    parser.add_argument("--top", type=int, default=20,
                        help="functions to show per ranking (default 20)")
    parser.add_argument("--sort", default="both",
                        choices=("tottime", "cumulative", "both"),
                        help="ranking(s) to print (default: both)")
    parser.add_argument("-o", "--output", default=None,
                        help="also dump raw pstats to this file")
    args = parser.parse_args(argv)

    point = args.preset or args.point
    workload = POINTS[point]
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    workload()
    profiler.disable()
    wall = time.perf_counter() - start

    print(f"profiled smoke point {point!r}: {wall:.3f}s wall\n")
    stats = pstats.Stats(profiler)
    rankings = (("tottime", "cumulative") if args.sort == "both"
                else (args.sort,))
    for ranking in rankings:
        print(f"=== top {args.top} by {ranking} ===")
        stats.sort_stats(ranking).print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw pstats written to {args.output}")


if __name__ == "__main__":
    main(sys.argv[1:])
