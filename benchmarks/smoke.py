"""Smoke benchmark: a deterministic golden of the paper's sim-time claims.

Runs the nine small points of the ``POINTS`` table and writes every
simulated result, counter and byte-identity verdict to
``BENCH_smoke.json``.  The host clock is never read, so that file is a
pure function of the code and the committed copy is a **golden**: CI
regenerates it in place and ``git diff --exit-code BENCH_smoke.json`` is
the whole comparison (``git log -p BENCH_smoke.json`` is the sim-side
history).  A change that moves a field on purpose commits the
regenerated file.  Host time is m2bench's (``python3 bench/run.py``).

The golden pins values; the ``GATES`` table states the claims a
regenerated golden must still meet (``gates.py``: every row is evaluated
and printed as the run summary, all failing rows are listed before the
non-zero exit).  The paper's figures are ``figures.py``'s, against
``FIDELITY.json`` — and so are the partitioning claims (noisy-neighbour
isolation, partition-kill containment), whose drivers it already runs.

The tracing and monitoring points also leave ``serving.trace.json`` /
``serving.manifest.json`` and ``incidents/`` in the working directory
for CI's artifact uploads.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py [output.json]
"""

from __future__ import annotations

import os
import sys

import numpy as np
from gates import write_and_gate

from repro import obs
from repro.cluster import make_cluster_platform
from repro.obs.incidents import grade_against_plan
from repro.obs.monitor import DEFAULT_MONITOR_INTERVAL_NS
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


def _exec_profile(counters: dict) -> dict:
    """Engine attribution from a dict of ``exec.*`` counters (a whole
    run's, or one pass's deltas): launches per tier + fallback reasons."""
    prefix = "exec.fallback_reason."
    return {
        "batched_launches": counters.get("exec.batched_launches", 0.0),
        "simt_launches": counters.get("exec.simt_launches", 0.0),
        "batched_fallbacks": counters.get("exec.batched_fallbacks", 0.0),
        "fallback_reasons": {
            key[len(prefix):]: value
            for key, value in counters.items() if key.startswith(prefix)
        },
    }


def bench_fig10a_point() -> dict:
    preset = scale(SMOKE_SCALE)
    out: dict = {"query": SMOKE_QUERY, "scale": SMOKE_SCALE,
                 "rows": preset.rows}
    for backend in ("interpreter", "batched"):
        data = olap.generate(SMOKE_QUERY, preset.rows)
        plat = make_platform(backend=backend)
        run = olap.run_ndp_evaluate(plat, data)
        out[backend] = {
            "runtime_ns": run.runtime_ns,
            "correct": run.correct,
            "dram_bytes": run.dram_bytes,
            **_exec_profile(plat.stats.counters("exec.")),
        }
    out["batched_runtime_ratio"] = (
        out["batched"]["runtime_ns"] / out["interpreter"]["runtime_ns"]
    )
    return out


def bench_fig06_point() -> dict:
    """HISTO on both backends: the previously-fallback atomic point.

    Before the SIMT engine this kernel (vector atomics, scratchpad
    partials, init/final phases) fell back to the interpreter on every
    launch; the point gates on the fallback count staying zero.
    """
    out: dict = {"elements": FIG06_SMOKE_ELEMENTS, "nbins": FIG06_SMOKE_BINS}
    data = histogram.generate(FIG06_SMOKE_ELEMENTS, FIG06_SMOKE_BINS)
    for backend in ("interpreter", "batched"):
        plat = make_platform(backend=backend)
        run = histogram.run_ndp(plat, data)
        out[backend] = {
            "runtime_ns": run.runtime_ns,
            "correct": run.correct,
            **_exec_profile(plat.stats.counters("exec.")),
        }
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


def _run_kvstore_serving(backend: str, max_batch: int,
                         scatter: str) -> tuple:
    """One steady-state KVStore serving run: warm pass, then measured pass.

    The warm pass populates the trace cache with the (value-generalized)
    point-path families; the measured pass is what a long-running tenant
    sees.  The interpreter baseline runs the same two-pass protocol (it
    has no cache to warm).  Returns the measured pass's report, its
    ``exec.*`` counter deltas and its result snapshots.
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
                                     requests=KVSTORE_SMOKE_REQUESTS),
                size=KVSTORE_SMOKE_ITEMS,
            )]
            return ServingEngine(
                plat, tenants, batch=BatchPolicy(max_batch=max_batch),
                inflight_per_device=KVSTORE_SMOKE_INFLIGHT,
            )

        make_engine().run()
        before = plat.stats.counters("exec.")
        engine = make_engine()
        report = engine.run()
        counters = {key: value - before.get(key, 0.0)
                    for key, value in plat.stats.counters("exec.").items()
                    if value != before.get(key, 0.0)}
        return report, counters, engine.result_snapshots()
    finally:
        if previous is None:
            os.environ.pop("REPRO_SERVE_SCATTER_BATCH", None)
        else:
            os.environ["REPRO_SERVE_SCATTER_BATCH"] = previous


def bench_kvstore_point() -> dict:
    """Fig 10b-class KVStore GETs through the serving engine, both tiers.

    Every request is a one-µthread divergent chain walk — the launch
    class where per-launch engine setup used to dominate (the
    small-launch cliff).  The batched tier serves it through scatter
    batching + the point engine's trie replay; the interpreter tier is
    the unbatched per-request baseline.  Counters are deltas over the
    measured (steady-state) pass only.
    """
    out: dict = {"items": KVSTORE_SMOKE_ITEMS,
                 "requests": KVSTORE_SMOKE_REQUESTS,
                 "rate_rps": KVSTORE_SMOKE_RATE_RPS,
                 "max_batch": KVSTORE_SMOKE_MAX_BATCH,
                 "inflight_per_device": KVSTORE_SMOKE_INFLIGHT}
    snapshots = {}
    for label, backend, max_batch, scatter in (
            ("interpreter", "interpreter", 1, "0"),
            ("batched", "batched", KVSTORE_SMOKE_MAX_BATCH, "1")):
        report, counters, snaps = _run_kvstore_serving(
            backend, max_batch, scatter)
        snapshots[label] = snaps
        out[label] = {
            "p95_ns": report.p95_ns,
            "served": report.served,
            "correct": report.correct,
            "launches": report.launches,
            "mean_batch": report.mean_batch,
            **{key.removeprefix("exec."): counters.get(key, 0.0)
               for key in _KVS_CACHE_COUNTERS},
            **_exec_profile(counters),
        }
    out["results_identical"] = (
        snapshots["interpreter"] == snapshots["batched"])
    out["p95_ratio"] = (
        out["batched"]["p95_ns"] / out["interpreter"]["p95_ns"]
    )
    return out


def bench_cluster_point() -> dict:
    """2-device interleaved vecadd through ClusterRuntime vs 1 device."""
    elements = CLUSTER_SMOKE_ELEMENTS
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
        instance = runtime.run_kernel(
            VECADD, addr_a, addr_a + a.nbytes, args=pack_args(addr_b, addr_c)
        )
        correct = bool(np.array_equal(
            runtime.read_array(addr_c, np.int64, elements), a + b
        ))
        out[label] = {
            "devices": devices,
            "runtime_ns": instance.runtime_ns,
            "correct": correct,
            "sub_launches": plat.stats.get("cluster.sub_launches"),
            "switch_p2p_bytes": plat.stats.get("switch.p2p_bytes"),
            "trace_cache_hits": plat.stats.get("exec.trace_cache_hits"),
            "trace_cache_misses": plat.stats.get("exec.trace_cache_misses"),
        }
    out["cluster_speedup"] = out["x1"]["runtime_ns"] / out["x2"]["runtime_ns"]
    return out


def bench_traffic_point() -> dict:
    """Repeated-launch point: 100 open-loop vecadd requests, 2 devices.

    Requests cycle through 8 working-set slices, so after the first pass
    every launch shape is already traced and replays from the trace
    cache.
    """
    plat = make_cluster_platform(num_devices=2, placement="interleaved",
                                 backend="batched")
    engine = ServingEngine(plat, [
        TenantSpec("smoke", "vecadd",
                   arrivals=ArrivalSpec("poisson", rate_rps=2e5,
                                        requests=TRAFFIC_SMOKE_REQUESTS)),
    ], scheduler="fifo", batch=BatchPolicy(max_batch=1, max_wait_ns=0.0),
        monitoring=False)
    report = engine.run()
    return {
        "requests": TRAFFIC_SMOKE_REQUESTS,
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
    report = engine.run()
    return engine, report, engine.result_snapshots()


def bench_serving_point() -> dict:
    """Dynamic batching vs unbatched FIFO on the same two-tenant load.

    The batched run must beat the unbatched baseline on throughput *and*
    trace-cache hit rate while producing byte-identical tenant results —
    ``GATES`` enforces all three.
    """
    out: dict = {
        "requests_per_tenant": SERVING_SMOKE_REQUESTS,
        "slices": SERVING_SMOKE_SLICES,
        "elements": SERVING_SMOKE_ELEMENTS,
    }
    snapshots = {}
    for label, scheduler, max_batch in (("unbatched", "fifo", 1),
                                        ("batched", "wfq", 8)):
        _engine, report, snaps = _run_serving(scheduler, max_batch)
        snapshots[label] = snaps
        out[label] = {
            "scheduler": scheduler,
            "max_batch": max_batch,
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
    return platform, engine, engine.run()


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
    for label, retries, plan in (("no_retry", 0, kill),
                                 ("retry", 3, kill)):
        platform, _, report = _run_resilience(retries, plan)
        tenant = report.tenant("scan")
        out[label] = {
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
        platform, engine, report = _run_resilience(0, plan)
        identity[label] = (engine.result_snapshots(),
                           report.aggregate.samples, platform.sim.now)
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
        _e0, report_off, snaps_off = _run_serving("wfq", 8)
        sig_off = _serving_signature(report_off)

        obs.set_enabled(True)
        engine, report_on, snaps_on = _run_serving("wfq", 8)
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
    _, engine_off, report_off = _run_resilience(
        3, kill, monitoring=False)
    platform, engine_on, report_on = _run_resilience(
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


#: The golden's top-level keys, in run order.
POINTS = (
    ("fig10a_point", bench_fig10a_point),
    ("fig06_point", bench_fig06_point),
    ("kvstore_point", bench_kvstore_point),
    ("cluster_point", bench_cluster_point),
    ("traffic_point", bench_traffic_point),
    ("serving_point", bench_serving_point),
    ("resilience_point", bench_resilience_point),
    ("tracing_point", bench_obs_point),
    ("monitoring_point", bench_monitoring_point),
)

#: The claims a regenerated golden must still meet (rows as ``gates.py``
#: defines them).
GATES = (
    ("fig10a_point.interpreter.correct", "==", True, "matches the reference"),
    ("fig10a_point.batched.correct", "==", True, "matches the reference"),
    ("fig06_point.interpreter.correct", "==", True, "matches the reference"),
    ("fig06_point.batched.correct", "==", True, "matches the reference"),
    ("fig06_point.batched.batched_fallbacks", "==", 0,
     "HISTO (vector atomics, phases, scratchpad) never falls back to the "
     "interpreter; fig06_point.batched.fallback_reasons names the cause"),
    ("kvstore_point.interpreter.correct", "==", True, "matches the reference"),
    ("kvstore_point.batched.correct", "==", True, "matches the reference"),
    ("kvstore_point.results_identical", "==", True,
     "scatter-batched serving leaves per-request results byte-identical"),
    ("kvstore_point.batched.batched_fallbacks", "==", 0,
     "one-µthread divergent GETs never fall back to the interpreter; "
     "kvstore_point.batched.fallback_reasons names the cause"),
    ("kvstore_point.batched.trace_cache_hits", ">", 0,
     "steady-state GETs hit the point engine's value-generalized cache"),
    ("cluster_point.x1.correct", "==", True, "matches the reference"),
    ("cluster_point.x2.correct", "==", True, "matches the reference"),
    ("cluster_point.cluster_speedup", ">=", 1.2,
     "a bandwidth-bound launch scales out across 2 devices"),
    ("traffic_point.correct", "==", True, "matches the reference"),
    ("traffic_point.trace_cache_hits", ">",
     "traffic_point.trace_cache_misses",
     "repeated launch shapes replay from the trace cache"),
    ("serving_point.unbatched.correct", "==", True, "matches the reference"),
    ("serving_point.batched.correct", "==", True, "matches the reference"),
    ("serving_point.results_identical", "==", True,
     "dynamic batching leaves per-request results byte-identical"),
    ("serving_point.throughput_gain", ">=", 1.1,
     "dynamic batching beats unbatched FIFO on sim-time throughput"),
    ("serving_point.hit_rate_gain", ">=", 0.2,
     "fusing slices collapses the shape population: the trace-cache hit "
     "rate rises"),
    ("resilience_point.no_retry.correct", "==", True, "matches the reference"),
    ("resilience_point.retry.correct", "==", True, "matches the reference"),
    ("resilience_point.no_retry.accounting_ok", "==", True,
     "offered == served + shed + expired + failed without retries"),
    ("resilience_point.retry.accounting_ok", "==", True,
     "offered == served + shed + expired + failed with retries"),
    ("resilience_point.retry.slo_attainment", ">=", 0.9,
     "deadline-aware retries hold the SLO floor under a 1-of-4 kill"),
    ("resilience_point.retry.slo_attainment", ">",
     "resilience_point.no_retry.slo_attainment",
     "retries recover requests the no-retry baseline strands"),
    ("resilience_point.zero_fault_identical", "==", True,
     "an armed zero-fault plan changes neither results nor timing (fault "
     "hooks are free when idle)"),
    ("tracing_point.results_identical", "==", True,
     "REPRO_TRACE=1 changes neither serving results nor sim timings"),
    ("tracing_point.span_coverage", ">=", 0.9,
     "exec spans cover the traced launches' runtime"),
    ("monitoring_point.results_identical", "==", True,
     "the SLO monitor observes, never steers: results and timings are "
     "identical with it on"),
    ("monitoring_point.recall", ">=", 1.0,
     "every injected fault is alerted"),
    ("monitoring_point.max_mtta_ns", "<=", DEFAULT_MONITOR_INTERVAL_NS,
     "the alert lands within one monitor beat of heartbeat detection"),
    ("monitoring_point.incidents", ">=", 1,
     "a device kill writes an incident bundle"),
    ("monitoring_point.timeline_coherent", "==", True,
     "some bundle's timeline orders the kill before its detection"),
)


def main(out_path: str = "BENCH_smoke.json") -> dict:
    return write_and_gate({name: point() for name, point in POINTS},
                          out_path, GATES)


if __name__ == "__main__":
    main(*sys.argv[1:2])
