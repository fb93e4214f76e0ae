"""Smoke benchmark: fast perf-trajectory tracking for CI.

Runs the Fig 5 offload-timeline model, one Fig 10a OLAP point (TPC-H
Q6, "small" scale) on *both* execution backends, one Fig 6-class HISTO
point (vector atomics + init/final phases + scratchpad — a guaranteed
interpreter fallback before the SIMT engine, now its bulk-lane
showcase), one Fig 10b-class KVStore point (fine-grained one-µthread
divergent chain walks served through the serving engine: scatter
batching + the point engine's trie replay vs the unbatched
interpreter, gated >5x and byte-identical), one
cluster point (2-device interleaved vecadd vs 1 device), one
repeated-launch traffic point (100 open-loop vecadd requests through the
cluster — the trace cache's home turf), and one serving point (two
tenants through the SLO-aware serving engine, dynamic batching vs
unbatched FIFO), then writes ``BENCH_smoke.json`` with simulated
results, wall-clock times, trace-cache hit/miss counters and the
``exec.fallback_reason.<class>`` attribution, plus
``BENCH_serving_tenants.json`` with the per-tenant latency summary CI
uploads as an artifact.  CI runs this on every push so the
interpreter/batched performance gap, the scale-out speedup, the
batching gains, the SIMT coverage (the HISTO and KVStore points gate on
``batched_fallbacks == 0``), and any regression in them are recorded
from PR to PR; ``benchmarks/check_budget.py`` turns wall-clock
regressions and fallback reappearances into CI failures.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform as platform_mod
import sys
import time

import numpy as np

from repro import obs
from repro.cluster import make_cluster_platform
from repro.obs.incidents import grade_against_plan
from repro.obs.monitor import DEFAULT_MONITOR_INTERVAL_NS
from repro.experiments.fig05 import run_fig5
from repro.experiments.partitioning import (
    PARTITION_SPEC,
    run_partitioning,
    run_partitioning_containment,
)
from repro.host.api import pack_args
from repro.kernels.vecadd import VECADD
from repro.faults import FaultEvent, FaultPlan
from repro.serve import (
    ArrivalSpec,
    BatchPolicy,
    RetryPolicy,
    ServingEngine,
    TenantSpec,
)
from repro.workloads import histogram, olap
from repro.workloads.base import make_platform, scale

SMOKE_QUERY = "q6"
SMOKE_SCALE = "small"

#: Fig 6-class smoke point: HISTO4096 input size.  Big enough that the
#: interpreter pays seconds while the SIMT engine stays ~100 ms, small
#: enough for every CI run.
FIG06_SMOKE_ELEMENTS = 1 << 16
FIG06_SMOKE_BINS = 4096

#: Fig 10b-class smoke point: fine-grained KVStore GETs through the
#: serving engine.  The load knobs are chosen so real scatter batches
#: form (arrivals outpace single-launch service): at 4e7 rps with two
#: launches in flight, ~14 requests fuse per launch on average.
KVSTORE_SMOKE_ITEMS = 512
KVSTORE_SMOKE_REQUESTS = 300
KVSTORE_SMOKE_RATE_RPS = 4e7
KVSTORE_SMOKE_MAX_BATCH = 16
KVSTORE_SMOKE_INFLIGHT = 2

#: Cluster smoke point: elements per vecadd array (2 MB — big enough to be
#: bandwidth-bound, small enough for a CI run).
CLUSTER_SMOKE_ELEMENTS = 1 << 18

#: Traffic smoke point: open-loop requests replayed against the cluster.
TRAFFIC_SMOKE_REQUESTS = 100

#: Serving smoke point: two tenants whose per-slice launch shapes (2 x 96)
#: overflow the per-device trace cache (LRU 64) when dispatched one by
#: one — dynamic batching fuses 8 slices per launch, collapsing the shape
#: population so the cache hits again.
SERVING_SMOKE_REQUESTS = 192      # per tenant (2 cycles over the slices)
SERVING_SMOKE_SLICES = 96
SERVING_SMOKE_ELEMENTS = 1 << 10  # per slice


def bench_fig5() -> dict:
    start = time.perf_counter()
    result = run_fig5()
    wall = time.perf_counter() - start
    return {
        "rows": result.rows,
        "notes": result.notes,
        "wall_seconds": wall,
    }


def _exec_profile(plat) -> dict:
    """Engine attribution for one run: launches per tier + fallback reasons."""
    prefix = "exec.fallback_reason."
    return {
        "batched_launches": plat.stats.get("exec.batched_launches"),
        "simt_launches": plat.stats.get("exec.simt_launches"),
        "batched_fallbacks": plat.stats.get("exec.batched_fallbacks"),
        "fallback_reasons": {
            key[len(prefix):]: value
            for key, value in plat.stats.counters(prefix).items()
        },
    }


def bench_fig10a_point(query: str = SMOKE_QUERY,
                       scale_name: str = SMOKE_SCALE) -> dict:
    preset = scale(scale_name)
    out: dict = {"query": query, "scale": scale_name, "rows": preset.rows}
    for backend in ("interpreter", "batched"):
        data = olap.generate(query, preset.rows)
        plat = make_platform(backend=backend)
        start = time.perf_counter()
        run = olap.run_ndp_evaluate(plat, data)
        wall = time.perf_counter() - start
        out[backend] = {
            "wall_seconds": wall,
            "runtime_ns": run.runtime_ns,
            "correct": run.correct,
            "dram_bytes": run.dram_bytes,
            **_exec_profile(plat),
        }
    out["batched_wall_speedup"] = (
        out["interpreter"]["wall_seconds"] / out["batched"]["wall_seconds"]
    )
    out["batched_runtime_ratio"] = (
        out["batched"]["runtime_ns"] / out["interpreter"]["runtime_ns"]
    )
    return out


def bench_fig06_point(elements: int = FIG06_SMOKE_ELEMENTS,
                      nbins: int = FIG06_SMOKE_BINS) -> dict:
    """HISTO on both backends: the previously-fallback atomic point.

    Before the SIMT engine this kernel (vector atomics, scratchpad
    partials, init/final phases) fell back to the interpreter on every
    launch; the point records the wall-clock cliff the masked engine
    removes and gates on the fallback count staying zero.
    """
    out: dict = {"elements": elements, "nbins": nbins}
    data = histogram.generate(elements, nbins)
    for backend in ("interpreter", "batched"):
        plat = make_platform(backend=backend)
        start = time.perf_counter()
        run = histogram.run_ndp(plat, data)
        wall = time.perf_counter() - start
        out[backend] = {
            "wall_seconds": wall,
            "runtime_ns": run.runtime_ns,
            "correct": run.correct,
            **_exec_profile(plat),
        }
    out["simt_wall_speedup"] = (
        out["interpreter"]["wall_seconds"] / out["batched"]["wall_seconds"]
    )
    out["simt_runtime_ratio"] = (
        out["batched"]["runtime_ns"] / out["interpreter"]["runtime_ns"]
    )
    return out


_KVS_CACHE_COUNTERS = (
    "exec.trace_cache_hits",
    "exec.trace_cache_misses",
    "exec.trace_cache_hits_generalized",
    "exec.trace_cache_hits_point",
    "exec.trace_cache_hits_batched",
    "exec.trace_cache_hits_simt",
)


def _run_kvstore_serving(backend: str, max_batch: int, scatter: str,
                         items: int, requests: int) -> tuple:
    """One steady-state KVStore serving run: warm pass, then timed pass.

    The warm pass populates the trace cache with the (value-generalized)
    point-path families; the timed pass measures the serving wall-clock
    a long-running tenant actually sees.  The interpreter baseline runs
    the same two-pass protocol for fairness (warming buys it nothing —
    it has no cache to warm).
    """
    previous = os.environ.get("REPRO_SERVE_SCATTER_BATCH")
    os.environ["REPRO_SERVE_SCATTER_BATCH"] = scatter
    try:
        plat = make_cluster_platform(num_devices=1, backend=backend)

        def make_engine() -> ServingEngine:
            tenants = [TenantSpec(
                "kv", "kvstore",
                arrivals=ArrivalSpec("poisson",
                                     rate_rps=KVSTORE_SMOKE_RATE_RPS,
                                     requests=requests),
                size=items,
            )]
            return ServingEngine(
                plat, tenants, batch=BatchPolicy(max_batch=max_batch),
                inflight_per_device=KVSTORE_SMOKE_INFLIGHT,
            )

        make_engine().run()
        before = {key: plat.stats.get(key) for key in _KVS_CACHE_COUNTERS}
        # two timed passes, best-of: wall-clock noise on a loaded CI
        # machine easily exceeds the gate margin on a single ~30 ms run
        wall = None
        for _ in range(2):
            engine = make_engine()
            start = time.perf_counter()
            report = engine.run()
            elapsed = time.perf_counter() - start
            if wall is None:
                # cache counters are the delta over the first timed pass
                cache = {key.removeprefix("exec."):
                         plat.stats.get(key) - before[key]
                         for key in _KVS_CACHE_COUNTERS}
                wall = elapsed
            else:
                wall = min(wall, elapsed)
        return plat, report, wall, cache, engine.result_snapshots()
    finally:
        if previous is None:
            os.environ.pop("REPRO_SERVE_SCATTER_BATCH", None)
        else:
            os.environ["REPRO_SERVE_SCATTER_BATCH"] = previous


def bench_kvstore_point(items: int = KVSTORE_SMOKE_ITEMS,
                        requests: int = KVSTORE_SMOKE_REQUESTS) -> dict:
    """Fig 10b-class KVStore GETs through the serving engine, both tiers.

    Every request is a one-µthread divergent chain walk — the launch
    class where per-launch engine setup used to dominate (the
    small-launch cliff).  The batched tier serves it through scatter
    batching + the point engine's trie replay; the interpreter tier is
    the unbatched per-request baseline.  Counters are deltas over the
    timed (steady-state) pass only.
    """
    out: dict = {"items": items, "requests": requests,
                 "rate_rps": KVSTORE_SMOKE_RATE_RPS,
                 "max_batch": KVSTORE_SMOKE_MAX_BATCH,
                 "inflight_per_device": KVSTORE_SMOKE_INFLIGHT}
    snapshots = {}
    for label, backend, max_batch, scatter in (
            ("interpreter", "interpreter", 1, "0"),
            ("batched", "batched", KVSTORE_SMOKE_MAX_BATCH, "1")):
        plat, report, wall, cache, snaps = _run_kvstore_serving(
            backend, max_batch, scatter, items, requests)
        snapshots[label] = snaps
        out[label] = {
            "wall_seconds": wall,
            "p95_ns": report.p95_ns,
            "served": report.served,
            "correct": report.correct,
            "launches": report.launches,
            "mean_batch": report.mean_batch,
            **cache,
            **_exec_profile(plat),
        }
    out["results_identical"] = (
        snapshots["interpreter"] == snapshots["batched"])
    out["serving_speedup"] = (
        out["interpreter"]["wall_seconds"] / out["batched"]["wall_seconds"])
    out["p95_ratio"] = (
        out["batched"]["p95_ns"] / out["interpreter"]["p95_ns"]
    )
    return out


def bench_cluster_point(elements: int = CLUSTER_SMOKE_ELEMENTS) -> dict:
    """2-device interleaved vecadd through ClusterRuntime vs 1 device."""
    a = (np.arange(elements) * 3).astype(np.int64)
    b = a[::-1].copy()
    out: dict = {"elements": elements, "placement": "interleaved",
                 "scheduler": "locality"}
    for label, devices in (("x1", 1), ("x2", 2)):
        plat = make_cluster_platform(num_devices=devices,
                                     placement="interleaved",
                                     backend="batched")
        runtime = plat.runtime
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(a.nbytes)
        start = time.perf_counter()
        instance = runtime.run_kernel(
            VECADD, addr_a, addr_a + a.nbytes, args=pack_args(addr_b, addr_c)
        )
        wall = time.perf_counter() - start
        correct = bool(np.array_equal(
            runtime.read_array(addr_c, np.int64, elements), a + b
        ))
        out[label] = {
            "devices": devices,
            "runtime_ns": instance.runtime_ns,
            "wall_seconds": wall,
            "correct": correct,
            "sub_launches": plat.stats.get("cluster.sub_launches"),
            "switch_p2p_bytes": plat.stats.get("switch.p2p_bytes"),
            "trace_cache_hits": plat.stats.get("exec.trace_cache_hits"),
            "trace_cache_misses": plat.stats.get("exec.trace_cache_misses"),
        }
    out["cluster_speedup"] = out["x1"]["runtime_ns"] / out["x2"]["runtime_ns"]
    return out


def bench_traffic_point(requests: int = TRAFFIC_SMOKE_REQUESTS) -> dict:
    """Repeated-launch point: 100 open-loop vecadd requests, 2 devices.

    Requests cycle through 8 working-set slices, so after the first pass
    every launch shape is already traced — the wall-clock of this point
    tracks the trace cache's replay path.
    """
    plat = make_cluster_platform(num_devices=2, placement="interleaved",
                                 backend="batched")
    engine = ServingEngine(plat, [
        TenantSpec("smoke", "vecadd",
                   arrivals=ArrivalSpec("poisson", rate_rps=2e5,
                                        requests=requests)),
    ], scheduler="fifo", batch=BatchPolicy(max_batch=1, max_wait_ns=0.0),
        monitoring=False)
    start = time.perf_counter()
    report = engine.run()
    wall = time.perf_counter() - start
    return {
        "requests": requests,
        "wall_seconds": wall,
        "served": report.served,
        "correct": report.correct,
        "p50_ns": report.p50_ns,
        "p95_ns": report.p95_ns,
        "p99_ns": report.p99_ns,
        "throughput_rps": report.throughput_rps,
        "trace_cache_hits": plat.stats.get("exec.trace_cache_hits"),
        "trace_cache_misses": plat.stats.get("exec.trace_cache_misses"),
    }


def _run_serving(scheduler: str, max_batch: int) -> tuple:
    platform = make_cluster_platform(num_devices=2, placement="interleaved",
                                     backend="batched")
    tenants = [
        TenantSpec(name, "vecadd",
                   arrivals=ArrivalSpec("poisson", rate_rps=1e7,
                                        requests=SERVING_SMOKE_REQUESTS),
                   size=SERVING_SMOKE_ELEMENTS,
                   slices=SERVING_SMOKE_SLICES)
        for name in ("web", "analytics")
    ]
    engine = ServingEngine(
        platform, tenants, scheduler=scheduler,
        batch=BatchPolicy(max_batch=max_batch, max_wait_ns=2_000.0),
        # windows finer than the ~30 µs run, so the peak window rate
        # measures this mode instead of averaging the whole run
        stats_window_ns=5_000.0,
    )
    start = time.perf_counter()
    report = engine.run()
    wall = time.perf_counter() - start
    return engine, report, wall, engine.result_snapshots()


def bench_serving_point() -> dict:
    """Dynamic batching vs unbatched FIFO on the same two-tenant load.

    The batched run must beat the unbatched baseline on throughput *and*
    trace-cache hit rate while producing byte-identical tenant results —
    the acceptance gates below enforce all three.
    """
    out: dict = {
        "requests_per_tenant": SERVING_SMOKE_REQUESTS,
        "slices": SERVING_SMOKE_SLICES,
        "elements": SERVING_SMOKE_ELEMENTS,
    }
    snapshots = {}
    for label, scheduler, max_batch in (("unbatched", "fifo", 1),
                                        ("batched", "wfq", 8)):
        _engine, report, wall, snaps = _run_serving(scheduler, max_batch)
        snapshots[label] = snaps
        out[label] = {
            "scheduler": scheduler,
            "max_batch": max_batch,
            "wall_seconds": wall,
            "served": report.served,
            "correct": report.correct,
            "launches": report.launches,
            "mean_batch": report.mean_batch,
            "p50_ns": report.p50_ns,
            "p99_ns": report.p99_ns,
            "throughput_rps": report.throughput_rps,
            "peak_window_rps": report.timeline.peak_rate_suffix_per_s(
                ".served"
            ),
            "trace_cache_hits": report.trace_cache_hits,
            "trace_cache_misses": report.trace_cache_misses,
            "trace_cache_hit_rate": report.trace_cache_hit_rate,
            "tenants": {
                t.name: {"served": t.served, "p50_ns": t.p50_ns,
                         "p95_ns": t.p95_ns, "p99_ns": t.p99_ns,
                         "goodput_rps": t.goodput_rps,
                         "mean_batch": t.mean_batch}
                for t in report.tenants
            },
        }
    out["results_identical"] = snapshots["unbatched"] == snapshots["batched"]
    out["throughput_gain"] = (out["batched"]["throughput_rps"]
                              / out["unbatched"]["throughput_rps"])
    out["hit_rate_gain"] = (out["batched"]["trace_cache_hit_rate"]
                            - out["unbatched"]["trace_cache_hit_rate"])
    return out


RESILIENCE_SMOKE_REQUESTS = 16


def _run_resilience(retries: int, plan, **engine_kwargs) -> tuple:
    platform = make_cluster_platform(num_devices=4, backend="batched")
    if plan is not None:
        platform.runtime.arm_faults(plan)
    spec = TenantSpec(
        "scan", "olap",
        arrivals=ArrivalSpec("poisson", rate_rps=2e6,
                             requests=RESILIENCE_SMOKE_REQUESTS),
        qos_class="interactive", slo_ns=5_000_000.0, size=1 << 17,
        slices=4, placement="replicated",
        retry=RetryPolicy(max_retries=retries, backoff_ns=500.0,
                          jitter_ns=200.0),
    )
    engine = ServingEngine(platform, [spec], **engine_kwargs)
    start = time.perf_counter()
    report = engine.run()
    wall = time.perf_counter() - start
    return platform, engine, report, wall


def bench_resilience_point() -> dict:
    """Kill 1 of 4 devices mid-traffic; recovery must hold the SLO floor.

    Three runs on the same seed: no-retry under the kill (the chaos
    baseline), deadline-aware retries under the kill (must recover every
    stranded request), and a zero-fault plan (must be byte-identical to
    running with no fault injector armed at all).
    """
    kill = FaultPlan(events=(
        FaultEvent("device_fail", at_ns=3_000.0, device=1),
    ))
    out: dict = {"requests": RESILIENCE_SMOKE_REQUESTS}
    wall_total = 0.0
    for label, retries, plan in (("no_retry", 0, kill),
                                 ("retry", 3, kill)):
        platform, _, report, wall = _run_resilience(retries, plan)
        wall_total += wall
        tenant = report.tenant("scan")
        out[label] = {
            "wall_seconds": wall,
            "offered": tenant.offered,
            "served": tenant.served,
            "failed": tenant.failed,
            "retried": tenant.retried,
            "slo_attainment": tenant.slo_attainment,
            "accounting_ok": tenant.accounting_ok,
            "correct": tenant.correct,
            "device_kills": platform.stats.get("fault.device_kills"),
            "lost_completions": platform.stats.get(
                "fault.lost_completions"),
            "failovers": platform.stats.get("recovery.failovers"),
        }
    identity = {}
    for label, plan in (("zero_fault", FaultPlan.none()),
                        ("disabled", None)):
        platform, engine, report, wall = _run_resilience(0, plan)
        wall_total += wall
        identity[label] = (engine.result_snapshots(),
                           report.aggregate.samples, platform.sim.now)
    out["wall_seconds"] = wall_total
    out["zero_fault_identical"] = (identity["zero_fault"]
                                   == identity["disabled"])
    return out


def _serving_signature(report) -> dict:
    """Everything sim-determined about a serving run: per-tenant latency
    and completion-time streams plus the aggregate span.  Two runs that
    differ anywhere in event ordering or timing differ here."""
    return {
        "span_ns": report.span_ns,
        "served": report.served,
        "latencies": [list(t.latencies.samples) for t in report.tenants],
        "completions": [list(t.completion_times) for t in report.tenants],
    }


def bench_obs_point() -> dict:
    """Tracing must be free when off and near-complete when on.

    Runs the serving smoke workload twice — ``REPRO_TRACE=0`` and ``=1``
    — and gates that (a) results and sim timings are byte-identical
    (tracing is pure observation), and (b) exec-span self time covers
    >=90% of the traced launches' ``runtime_ns``.  The traced pass also
    writes ``serving.trace.json`` / ``serving.manifest.json``, the
    artifacts CI uploads.
    """
    prior = obs.enabled()
    try:
        obs.set_enabled(False)
        _e0, report_off, off_wall, snaps_off = _run_serving("wfq", 8)
        sig_off = _serving_signature(report_off)

        obs.set_enabled(True)
        engine, report_on, on_wall, snaps_on = _run_serving("wfq", 8)
        sig_on = _serving_signature(report_on)
        plat = engine.platform
        tracer = obs.tracer_of(plat.sim)
        spans = tracer.finalize()
        exec_names = {"exec.interpreter", "exec.batched",
                      "exec.simt", "exec.point"}
        span_ns: dict[tuple[int, int], float] = {}
        for span in spans:
            if span.name in exec_names and span.instance_key is not None:
                key = span.instance_key
                span_ns[key] = span_ns.get(key, 0.0) + span.duration_ns
        covered = total_runtime = 0.0
        traced = untraced = 0
        for device in plat.devices:
            pid = device.trace_pid
            for iid, inst in device.controller.instances.items():
                if inst.start_ns is None or inst.complete_ns is None:
                    continue
                exec_ns = span_ns.get((pid, iid))
                if exec_ns is None:
                    untraced += 1
                    continue
                traced += 1
                covered += min(exec_ns, inst.runtime_ns)
                total_runtime += inst.runtime_ns
        coverage = covered / total_runtime if total_runtime else 0.0
        obs.write_trace(tracer, "serving.trace.json",
                        counters=engine._util.counter_samples())
        obs.write_manifest(
            "serving.manifest.json", tracer=tracer, stats=plat.stats,
            config=plat.system, seed=plat.runtime.cluster_config.seed,
            partitions=plat.runtime.partitions,
            extra={
                "experiment": "smoke_serving_traced",
                "served": report_on.served,
                "span_ns": report_on.span_ns,
                "utilization": engine._util.summary(),
            },
        )
    finally:
        obs.set_enabled(prior)
    return {
        "off_wall_seconds": off_wall,
        "on_wall_seconds": on_wall,
        "overhead_ratio": on_wall / off_wall if off_wall else 0.0,
        "span_coverage": coverage,
        "traced_launches": traced,
        "untraced_launches": untraced,
        "spans": len(spans),
        "results_identical": (snaps_off == snaps_on and sig_off == sig_on),
    }


def bench_monitoring_point() -> dict:
    """Always-on monitoring must observe without perturbing.

    Re-runs the resilience kill point twice on the same seed —
    monitoring off, then on with an incident directory — and gates that
    (a) results and latency streams are byte-identical, (b) every
    injected fault is alerted (recall 1.0), (c) the alert lands within
    one monitor beat of heartbeat detection, and (d) at least one
    coherent incident bundle is written.  Bundles land in
    ``incidents/`` for the CI artifact upload.
    """
    kill = FaultPlan(events=(
        FaultEvent("device_fail", at_ns=3_000.0, device=1),
    ))
    os.makedirs("incidents", exist_ok=True)
    _, engine_off, report_off, off_wall = _run_resilience(
        3, kill, monitoring=False)
    platform, engine_on, report_on, on_wall = _run_resilience(
        3, kill, monitoring=True, incident_dir="incidents")
    grade = grade_against_plan(platform.runtime.faults,
                               engine_on.monitor.alerts)
    bundles = engine_on.reporter.bundles
    timeline_coherent = False
    for bundle in bundles:
        t = {row["kind"]: row["t_ns"] for row in bundle["timeline"]}
        if ("fault.kill" in t and "fault.detect" in t
                and t["fault.kill"] <= t["fault.detect"]):
            timeline_coherent = True
    return {
        "off_wall_seconds": off_wall,
        "on_wall_seconds": on_wall,
        "overhead_ratio": on_wall / off_wall if off_wall else 0.0,
        "results_identical": (
            engine_off.result_snapshots() == engine_on.result_snapshots()
            and _serving_signature(report_off)
            == _serving_signature(report_on)),
        "alerts": grade["alerts"],
        "recall": grade["recall"],
        "precision": grade["precision"],
        "mean_mttd_ns": grade["mean_mttd_ns"],
        "max_mtta_ns": grade["max_mtta_ns"],
        "incidents": len(bundles),
        "incident_files": len(engine_on.reporter.paths),
        "timeline_coherent": timeline_coherent,
    }


def bench_partition_point() -> dict:
    """Hardware partitioning: noisy-neighbour isolation + blast radius.

    Two sweeps on the same seeds: shared vs partitioned serving under an
    adversarial batch tenant (the partitioned interactive p99 must stay
    within 10% of its solo run while the shared one degrades), then a
    partition-scoped kill of the adversary's partition (the interactive
    tenant must come through byte-identical, every fault alerted, and
    the blast radius confined to the killed partition).
    """
    start = time.perf_counter()
    isolation = run_partitioning()
    isolation_wall = time.perf_counter() - start
    start = time.perf_counter()
    containment = run_partitioning_containment()
    containment_wall = time.perf_counter() - start
    modes = {row["mode"]: row for row in isolation.rows}
    chaos = containment.rows[0]
    return {
        "spec": PARTITION_SPEC,
        "wall_seconds": isolation_wall + containment_wall,
        "isolation_wall_seconds": isolation_wall,
        "containment_wall_seconds": containment_wall,
        "shared": modes["shared"],
        "partitioned": modes["partitioned"],
        "containment": chaos,
        "shared_penalty": modes["shared"]["rt_p99_vs_solo"],
        "partitioned_penalty": modes["partitioned"]["rt_p99_vs_solo"],
    }


def main(out_path: str = "BENCH_smoke.json") -> dict:
    payload = {
        "python": platform_mod.python_version(),
        "fig5": bench_fig5(),
        "fig10a_point": bench_fig10a_point(),
        "fig06_point": bench_fig06_point(),
        "kvstore_point": bench_kvstore_point(),
        "cluster_point": bench_cluster_point(),
        "traffic_point": bench_traffic_point(),
        "serving_point": bench_serving_point(),
        "resilience_point": bench_resilience_point(),
        "tracing_point": bench_obs_point(),
        "monitoring_point": bench_monitoring_point(),
        "partition_point": bench_partition_point(),
    }
    point = payload["fig10a_point"]
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    fig06 = payload["fig06_point"]
    kvs = payload["kvstore_point"]
    cluster = payload["cluster_point"]
    traffic = payload["traffic_point"]
    serving = payload["serving_point"]
    # per-tenant latency summary, uploaded as its own CI artifact
    tenant_summary = {
        mode: payload["serving_point"][mode]["tenants"]
        for mode in ("unbatched", "batched")
    }
    with open("BENCH_serving_tenants.json", "w") as fh:
        json.dump(tenant_summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path} and BENCH_serving_tenants.json")
    print(f"  fig10a {point['query']}@{point['scale']}: "
          f"interpreter {point['interpreter']['wall_seconds']:.2f}s, "
          f"batched {point['batched']['wall_seconds']:.2f}s "
          f"({point['batched_wall_speedup']:.1f}x wall, "
          f"sim-time ratio {point['batched_runtime_ratio']:.2f})")
    print(f"  fig06 histo{fig06['nbins']} ({fig06['elements']} elems): "
          f"interpreter {fig06['interpreter']['wall_seconds']:.2f}s, "
          f"SIMT {fig06['batched']['wall_seconds']:.2f}s "
          f"({fig06['simt_wall_speedup']:.1f}x wall, sim-time ratio "
          f"{fig06['simt_runtime_ratio']:.2f}, "
          f"{fig06['batched']['batched_fallbacks']:.0f} fallbacks)")
    print(f"  kvstore serving {kvs['requests']} reqs: "
          f"interpreter {kvs['interpreter']['wall_seconds']*1e3:.0f}ms, "
          f"scatter {kvs['batched']['wall_seconds']*1e3:.0f}ms "
          f"({kvs['serving_speedup']:.1f}x wall, p95 ratio "
          f"{kvs['p95_ratio']:.2f}, mean batch "
          f"{kvs['batched']['mean_batch']:.1f}, cache "
          f"{kvs['batched']['trace_cache_hits']:.0f} hits / "
          f"{kvs['batched']['trace_cache_hits_generalized']:.0f} gen / "
          f"{kvs['batched']['trace_cache_misses']:.0f} misses, "
          f"identical: {kvs['results_identical']})")
    print(f"  cluster vecadd {cluster['elements']} elems: "
          f"2-device speedup {cluster['cluster_speedup']:.2f}x "
          f"({cluster['x2']['sub_launches']:.0f} sub-launches)")
    print(f"  traffic {traffic['requests']} requests: "
          f"{traffic['wall_seconds']:.2f}s wall, "
          f"p95 {traffic['p95_ns']:.0f} ns, trace cache "
          f"{traffic['trace_cache_hits']:.0f} hits / "
          f"{traffic['trace_cache_misses']:.0f} misses")
    print(f"  serving 2x{serving['requests_per_tenant']} requests: "
          f"batching {serving['throughput_gain']:.2f}x throughput, "
          f"cache hit rate "
          f"{serving['unbatched']['trace_cache_hit_rate']:.2f} -> "
          f"{serving['batched']['trace_cache_hit_rate']:.2f}, "
          f"results identical: {serving['results_identical']}")
    resilience = payload["resilience_point"]
    print(f"  resilience {resilience['requests']} requests, 1-of-4 kill: "
          f"no-retry slo {resilience['no_retry']['slo_attainment']:.2f} "
          f"({resilience['no_retry']['failed']} failed) -> retry slo "
          f"{resilience['retry']['slo_attainment']:.2f} "
          f"({resilience['retry']['retried']} retried), zero-fault "
          f"identical: {resilience['zero_fault_identical']}")
    tracing = payload["tracing_point"]
    print(f"  tracing: off {tracing['off_wall_seconds']:.2f}s, "
          f"on {tracing['on_wall_seconds']:.2f}s "
          f"({tracing['overhead_ratio']:.2f}x), span coverage "
          f"{tracing['span_coverage']:.1%} over "
          f"{tracing['traced_launches']} launches / "
          f"{tracing['spans']} spans, "
          f"identical: {tracing['results_identical']}")
    monitoring = payload["monitoring_point"]
    print(f"  monitoring: off {monitoring['off_wall_seconds']:.2f}s, "
          f"on {monitoring['on_wall_seconds']:.2f}s "
          f"({monitoring['overhead_ratio']:.2f}x), recall "
          f"{monitoring['recall']:.2f} / precision "
          f"{monitoring['precision']:.2f}, MTTD "
          f"{monitoring['mean_mttd_ns']:.0f} ns, "
          f"{monitoring['incidents']} incidents, "
          f"identical: {monitoring['results_identical']}")
    partition = payload["partition_point"]
    print(f"  partitioning {partition['spec']!r}: noisy-neighbour p99 "
          f"penalty shared {partition['shared_penalty']:.2f}x vs "
          f"partitioned {partition['partitioned_penalty']:.2f}x; "
          f"partition kill contained: "
          f"{partition['containment']['rt_bytes_identical']} "
          f"(blast {partition['containment']['blast_radius']}, "
          f"per-partition kernels "
          f"{partition['containment']['partition_kernels']})")
    if not (point["interpreter"]["correct"] and point["batched"]["correct"]):
        raise SystemExit("smoke benchmark produced incorrect results")
    if not (fig06["interpreter"]["correct"] and fig06["batched"]["correct"]):
        raise SystemExit("fig06 smoke point produced incorrect results")
    if fig06["batched"]["batched_fallbacks"] != 0:
        raise SystemExit(
            f"fig06 smoke point fell back to the interpreter "
            f"({fig06['batched']['fallback_reasons']})"
        )
    if fig06["simt_wall_speedup"] < 5.0:
        raise SystemExit(
            f"SIMT engine lost its wall-clock edge on the atomic point "
            f"({fig06['simt_wall_speedup']:.1f}x, floor 5x)"
        )
    if not (kvs["interpreter"]["correct"] and kvs["batched"]["correct"]):
        raise SystemExit("kvstore smoke point produced incorrect results")
    if not kvs["results_identical"]:
        raise SystemExit(
            "scatter-batched kvstore serving changed per-request results"
        )
    if kvs["batched"]["batched_fallbacks"] != 0:
        raise SystemExit(
            f"kvstore smoke point fell back to the interpreter "
            f"({kvs['batched']['fallback_reasons']})"
        )
    if kvs["serving_speedup"] < 5.0:
        raise SystemExit(
            f"kvstore serving lost its wall-clock edge over the "
            f"interpreter ({kvs['serving_speedup']:.1f}x, floor 5x)"
        )
    if kvs["p95_ratio"] > 1.18:
        raise SystemExit(
            f"kvstore serving p95 drifted from the interpreter's "
            f"({kvs['p95_ratio']:.2f}, ceiling 1.18)"
        )
    if kvs["batched"]["trace_cache_hits"] <= 0:
        raise SystemExit(
            "kvstore serving stopped hitting the point trace cache"
        )
    if not (cluster["x1"]["correct"] and cluster["x2"]["correct"]):
        raise SystemExit("cluster smoke point produced incorrect results")
    if not traffic["correct"]:
        raise SystemExit("traffic smoke point produced incorrect results")
    if cluster["cluster_speedup"] < 1.2:
        raise SystemExit(
            f"cluster smoke point lost its scale-out speedup "
            f"({cluster['cluster_speedup']:.2f}x)"
        )
    if traffic["trace_cache_hits"] <= traffic["trace_cache_misses"]:
        raise SystemExit(
            "traffic smoke point stopped hitting the trace cache "
            f"({traffic['trace_cache_hits']:.0f} hits / "
            f"{traffic['trace_cache_misses']:.0f} misses)"
        )
    if not (serving["unbatched"]["correct"] and serving["batched"]["correct"]):
        raise SystemExit("serving smoke point produced incorrect results")
    if not serving["results_identical"]:
        raise SystemExit(
            "dynamic batching changed per-request results in the serving "
            "smoke point"
        )
    if serving["throughput_gain"] < 1.1:
        raise SystemExit(
            f"dynamic batching lost its throughput edge "
            f"({serving['throughput_gain']:.2f}x)"
        )
    if serving["hit_rate_gain"] < 0.2:
        raise SystemExit(
            f"dynamic batching lost its trace-cache hit-rate edge "
            f"(+{serving['hit_rate_gain']:.2f})"
        )
    if not (resilience["no_retry"]["correct"]
            and resilience["retry"]["correct"]):
        raise SystemExit("resilience smoke point produced incorrect results")
    if not (resilience["no_retry"]["accounting_ok"]
            and resilience["retry"]["accounting_ok"]):
        raise SystemExit(
            "resilience smoke point broke the serving accounting identity "
            "(offered != served + shed + expired + failed)"
        )
    if resilience["retry"]["slo_attainment"] < 0.9:
        raise SystemExit(
            f"retries stopped holding the SLO floor under a device kill "
            f"({resilience['retry']['slo_attainment']:.2f}, floor 0.9)"
        )
    if (resilience["retry"]["slo_attainment"]
            <= resilience["no_retry"]["slo_attainment"]):
        raise SystemExit(
            "deadline-aware retries lost their edge over the no-retry "
            "baseline under a mid-traffic device kill"
        )
    if not resilience["zero_fault_identical"]:
        raise SystemExit(
            "arming a zero-fault plan changed serving results or timing "
            "(fault hooks are supposed to be free when idle)"
        )
    if not tracing["results_identical"]:
        raise SystemExit(
            "enabling REPRO_TRACE changed serving results or sim timings"
        )
    if tracing["span_coverage"] < 0.9:
        raise SystemExit(
            f"exec spans cover only {tracing['span_coverage']:.1%} of "
            f"traced launch runtime (floor 90%)"
        )
    if not monitoring["results_identical"]:
        raise SystemExit(
            "enabling the SLO monitor changed serving results or timings "
            "(monitoring is supposed to observe, never steer)"
        )
    if monitoring["recall"] < 1.0:
        raise SystemExit(
            f"monitoring missed an injected fault (recall "
            f"{monitoring['recall']:.2f}, floor 1.0)"
        )
    if monitoring["max_mtta_ns"] > DEFAULT_MONITOR_INTERVAL_NS:
        raise SystemExit(
            f"alert lagged detection by {monitoring['max_mtta_ns']:.0f} ns "
            f"(ceiling: one monitor beat, "
            f"{DEFAULT_MONITOR_INTERVAL_NS:.0f} ns)"
        )
    if monitoring["incidents"] < 1 or not monitoring["timeline_coherent"]:
        raise SystemExit(
            "device kill produced no coherent incident bundle "
            "(kill <= detect ordering missing from every timeline)"
        )
    if not (partition["shared"]["correct"]
            and partition["partitioned"]["correct"]
            and partition["containment"]["correct"]):
        raise SystemExit("partition smoke point produced incorrect results")
    if partition["partitioned_penalty"] > 1.10:
        raise SystemExit(
            f"partitioned interactive p99 drifted "
            f"{partition['partitioned_penalty']:.2f}x from its solo run "
            f"under an adversarial tenant (ceiling 1.10x — partitions "
            f"stopped isolating)"
        )
    if partition["shared_penalty"] <= partition["partitioned_penalty"]:
        raise SystemExit(
            "the shared cluster no longer shows a noisy-neighbour "
            "penalty the partitioned one avoids — the smoke point "
            "stopped exercising isolation"
        )
    if not partition["containment"]["rt_bytes_identical"]:
        raise SystemExit(
            "a partition-scoped kill perturbed another partition's "
            "result bytes (containment broken)"
        )
    if not (partition["containment"]["rt_accounted"]
            and partition["containment"]["noisy_accounted"]):
        raise SystemExit(
            "partition kill broke the serving accounting identity"
        )
    if partition["containment"]["alert_recall"] < 1.0:
        raise SystemExit(
            f"monitoring missed the partition kill (recall "
            f"{partition['containment']['alert_recall']:.2f}, floor 1.0)"
        )
    blast_keys = partition["containment"]["blast_radius"]
    if blast_keys == "none" or any(
            not key.split(":")[0].endswith(".batch")
            for key in blast_keys.split(",")):
        raise SystemExit(
            f"partition-kill blast radius escaped the killed partition "
            f"({blast_keys!r}; only dev*.batch may appear)"
        )
    return payload


if __name__ == "__main__":
    main(*sys.argv[1:2])
