"""One fresh single-threaded subprocess of the bench: ``timed``, ``traced``
or ``probe``.  ``run.py`` starts it with every ``REPRO_*`` variable
cleared and reads the JSON object it prints as its last line.

``timed``  set-up (import ``repro``, build the platform, generate data
           from the seed, one untimed warm pass), then ``--passes`` timed
           passes with ``time.perf_counter`` around each pass only; never
           imports ``tracing``.
``traced`` the same set-up, then pass 1 again under the span tracer.  It
           starts from the same state, so its pass-1 digest must equal
           the timed subprocess's.
``probe``  the workload's reduced-size run on the interpreter (the
           reference) and on the batched engine.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()      # set-up time includes importing repro

import argparse                # noqa: E402
import json                    # noqa: E402
import os                      # noqa: E402
import resource                # noqa: E402
import sys                     # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import workloads               # noqa: E402  (bench/workloads.py)


def _set_up(args):
    workload = workloads.build(args.workload, args.seed, args.quick)
    warm = workload.run_pass(warm=True)
    return workload, warm, time.perf_counter() - _T0


def _digest(workload, results) -> str:
    return workloads.digest_of([workload.stats_snapshot()]
                               + [r.digest for r in results])


def timed(args) -> dict:
    workload, warm, setup_s = _set_up(args)
    walls, results = [], []
    digest_pass1 = None
    for _ in range(args.passes):
        start = time.perf_counter()
        result = workload.run_pass()
        walls.append(time.perf_counter() - start)
        results.append(result)
        if digest_pass1 is None:
            digest_pass1 = _digest(workload, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "walls": walls,
        "units": [r.units for r in results],
        "attempted": sum(r.units for r in [warm] + results),
        "failed": sum(r.failed for r in [warm] + results),
        "peak_rss_mb": peak_rss_mb,
        "sim_digest_pass1": digest_pass1,
        "sim_digest": _digest(workload, [warm] + results),
        "sizes": workload.sizes,
        "unit": workload.unit,
        "tracing_imported": "tracing" in sys.modules,
    }


def _delta(after: dict, before: dict, *keys: str) -> float:
    return sum(after.get(key, 0.0) - before.get(key, 0.0) for key in keys)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced(args) -> dict:
    import tracing

    workload, warm, _setup_s = _set_up(args)
    before = workload.stats_snapshot()
    sim_before, events_before = workload.sim_now(), workload.events()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.pass", "bench") as root:
            result = workload.run_pass()
    finally:
        tracer.uninstall()
    after = workload.stats_snapshot()
    wall = root[tracing.END] - root[tracing.START]
    layers = tracer.by_layer()

    def d(*keys: str) -> float:
        return _delta(after, before, *keys)

    def prefixed(suffix: str) -> float:
        """Delta summed over per-tenant counters ``serve.<tenant>.<suffix>``."""
        return d(*[k for k in after
                   if k.startswith("serve.") and k.endswith("." + suffix)])

    events = workload.events() - events_before
    sim_ns = workload.sim_now() - sim_before
    hits, misses = d("exec.trace_cache_hits"), d("exec.trace_cache_misses")
    l2_hits = d("l2.read_hits", "l2.write_hits")
    l2_all = l2_hits + d("l2.read_misses", "l2.write_misses")
    row_hits = d("cxl_dram.row_hits")
    rows = row_hits + d("cxl_dram.row_misses", "cxl_dram.row_conflicts")
    sim = result.sim            # sim-clock readings; the sweep has none
    metrics = {
        "serve.launches": (sim.get("launches", 0), "count"),
        "serve.mean_batch": (sim.get("mean_batch", 0.0), "requests"),
        "serve.sim_p50_ns": (sim.get("p50_ns", 0.0), "ns"),
        "serve.sim_p99_ns": (sim.get("p99_ns", 0.0), "ns"),
        "serve.sim_goodput_rps": (sim.get("goodput_rps", 0.0), "1/s"),
        "serve.shed": (sim.get("shed", 0), "count"),
        "serve.failed": (sim.get("failed", 0), "count"),
        "sim.events": (events, "count"),
        "sim.runtime_ns": (sim_ns, "ns"),
        "cluster.sub_launches": (d("cluster.sub_launches"), "count"),
        "ndp.kernels_completed": (d("ndp.kernels_completed"), "count"),
        "ndp.uthreads": (d("ndp.uthreads_finished"), "count"),
        "ndp.instructions": (d("ndp.instructions"), "count"),
        "exec.batched_launches": (d("exec.batched_launches"), "count"),
        "exec.simt_launches": (d("exec.simt_launches"), "count"),
        "exec.point_hits": (d("exec.trace_cache_hits_point"), "count"),
        "exec.fallbacks": (d("exec.batched_fallbacks"), "count"),
        "exec.trace_cache.lookups": (
            tracer.calls("TraceCache.lookup")
            + tracer.calls("TraceCache.lookup_point"), "count"),
        "exec.trace_cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "mem.cache.hit_ratio": (_ratio(l2_hits, l2_all), "ratio"),
        "mem.dram.bytes": (d("cxl_dram.bytes"), "B"),
        "mem.dram.row_hit_ratio": (_ratio(row_hits, rows), "ratio"),
        "cxl.link_bytes": (d("cxl.down_bytes", "cxl.up_bytes"), "B"),
        "cxl.switch_p2p_bytes": (d("switch.p2p_bytes"), "B"),
    }
    for layer in ("serve", "sim", "cluster", "host", "ndp", "exec",
                  "exec.trace_cache", "mem.charge", "mem.cache", "mem.dram",
                  "mem.physical", "cxl", "isa", "obs", "workloads"):
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[layer + ".self_s"] = (entry["self_s"], "s")
        if layer not in ("sim", "cxl", "mem.dram"):
            metrics[layer + ".calls"] = (entry["calls"], "count")
    # scalar accesses are counted, not spanned
    metrics["mem.cache.calls"] = (
        metrics["mem.cache.calls"][0]
        + tracer.counts["SectorCache.access"], "count")
    unattributed = (layers["bench"]["self_s"]
                    + layers.get(tracing.OTHER, {"self_s": 0.0})["self_s"])
    metrics["bench.unattributed_share"] = (unattributed / wall, "ratio")
    # share of the pass's kernel time the dearest kernel run took (sweep)
    parts = result.parts.values()
    metrics["workloads.max_kernel_share"] = (
        _ratio(max(parts, default=0.0), sum(parts)), "ratio")

    # the wrappers' counts must be the simulator's own counts of the same
    # pass: a wrapper that misses calls (or a pass that differs from the
    # timed one) fails here, loudly
    checks = {
        "event callbacks dispatched == events_processed":
            (tracer.calls_prefixed("event:"), events),
        "M2NDPDevice.register_execution == ndp.kernels_completed":
            (tracer.calls("M2NDPDevice.register_execution"),
             d("ndp.kernels_completed")),
    }
    if "launches" in sim:
        checks["ClusterRuntime.launch_async == serve launches"] = (
            tracer.calls("ClusterRuntime.launch_async"), prefixed("launches"))
        checks["M2NDPRuntime.launch_async == cluster.sub_launches"] = (
            tracer.calls("M2NDPRuntime.launch_async"),
            d("cluster.sub_launches"))
    broken = {what: pair for what, pair in checks.items()
              if pair[0] != pair[1]}
    if broken:
        raise SystemExit(f"{args.workload}: traced counts disagree with "
                         f"StatsRegistry deltas: {broken}")

    if args.trace_out:
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        tracer.write(args.trace_out)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}
    return {
        "wall": wall,
        "regime": workloads.regime(args.workload, metrics),
        "attempted": warm.units + result.units,
        "failed": warm.failed + result.failed,
        "sim_digest_pass1": _digest(workload, [result]),
        "metrics": metrics,
    }


def probe(args) -> dict:
    workload = workloads.build(args.workload, args.seed, args.quick)
    start = time.perf_counter()
    pairs = workload.probe()
    wall = time.perf_counter() - start
    errors = workloads.probe_errors(pairs)
    worst = max(errors, key=errors.get)
    return {
        "sim_err_vs_ref": workloads.sim_err_vs_ref(pairs),
        "sim_agreement_vs_ref": workloads.sim_agreement_vs_ref(pairs),
        "errors": errors,
        "max_err": errors[worst],
        "worst": worst,
        "probe_wall_s": wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("timed", "traced", "probe"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    out = {"timed": timed, "traced": traced, "probe": probe}[args.mode](args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
