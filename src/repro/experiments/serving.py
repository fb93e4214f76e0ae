"""Serving experiment: tenant-mix x scheduler x batching sweeps.

The datacenter-serving counterpart of the scaling experiment: a mixed
tenant population (interactive KVStore point lookups with a tight SLO,
interactive OLAP scans, batch-class vector jobs) is replayed through the
:class:`~repro.serve.engine.ServingEngine` under every combination of
dispatch scheduler (``fifo`` / ``wfq``) and dynamic batching (off /
max-batch 8), reporting per-tenant p50/p99, SLO attainment, goodput and
shed counts plus the cluster's trace-cache hit rate.

Expected shape of the results (asserted loosely by the serve tests, not
here): WFQ keeps the interactive tenants' p99 and SLO attainment stable
when the batch tenant floods the cluster, while FIFO lets the flood push
interactive latencies out; enabling batching raises aggregate throughput
and the trace-cache hit rate at a small p50 cost for the batched tenant.
"""

from __future__ import annotations

import json

from repro import obs
from repro.cluster import make_cluster_platform
from repro.experiments.common import EXPERIMENT_BACKEND, ExperimentResult
from repro.obs.report import build_report, parse_events, render
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    BatchPolicy,
    ServingEngine,
    TenantSpec,
)

#: The default mixed-tenant population (sizes are test-scale; the offered
#: rates saturate a 2-device cluster so queueing discipline matters).
def default_tenants(requests: int = 48) -> list[TenantSpec]:
    return [
        TenantSpec(
            "kv-web", "kvstore",
            arrivals=ArrivalSpec("poisson", rate_rps=4e6, requests=requests),
            qos_class="interactive", weight=2.0, slo_ns=40_000.0, size=512,
        ),
        TenantSpec(
            "dash", "olap",
            arrivals=ArrivalSpec("bursty", rate_rps=1e6, burst_rate_rps=8e6,
                                 dwell_ns=20_000.0,
                                 requests=max(8, requests // 2)),
            qos_class="interactive", weight=1.0, slo_ns=120_000.0,
            size=1 << 12, slices=4,
        ),
        TenantSpec(
            "etl", "vecadd",
            arrivals=ArrivalSpec("poisson", rate_rps=4e6,
                                 requests=requests),
            qos_class="batch", weight=1.0, size=1 << 10, slices=8,
        ),
    ]


def run_serving(requests: int = 48,
                num_devices: int = 2) -> ExperimentResult:
    """Scheduler x batching sweep over the default tenant mix."""
    result = ExperimentResult(
        "serving",
        f"SLO-aware serving on {num_devices} devices "
        f"(scheduler x batching, {EXPERIMENT_BACKEND} backend)",
    )
    for scheduler in ("fifo", "wfq"):
        for max_batch in (1, 8):
            platform = make_cluster_platform(num_devices=num_devices,
                                             backend=EXPERIMENT_BACKEND)
            engine = ServingEngine(
                platform, default_tenants(requests),
                scheduler=scheduler,
                batch=BatchPolicy(max_batch=max_batch, max_wait_ns=2_000.0),
            )
            report = engine.run()
            for tenant in report.tenants:
                result.add(
                    scheduler=scheduler,
                    max_batch=max_batch,
                    tenant=tenant.name,
                    qos=tenant.qos_class,
                    served=tenant.served,
                    shed=tenant.shed,
                    p50_ns=tenant.p50_ns if tenant.served else 0.0,
                    p99_ns=tenant.p99_ns if tenant.served else 0.0,
                    slo_att=tenant.slo_attainment,
                    goodput_rps=tenant.goodput_rps,
                    mean_batch=tenant.mean_batch,
                    correct=tenant.correct,
                )
            result.add(
                scheduler=scheduler,
                max_batch=max_batch,
                tenant="(aggregate)",
                qos="-",
                served=report.served,
                shed=report.offered - report.served,
                p50_ns=report.p50_ns,
                p99_ns=report.p99_ns,
                slo_att=report.slo_attainment,
                goodput_rps=report.goodput_rps,
                mean_batch=report.mean_batch,
                correct=report.correct,
            )
            result.rows[-1]["cache_hit_rate"] = report.trace_cache_hit_rate
    result.headline = {"correct": all(result.column("correct"))}
    result.notes = (
        "wfq + batching is the production point: fair shares under "
        "overload, amortized launches, trace-cache hits on repeat shapes"
    )
    return result


def run_serving_autoscale(requests: int = 96,
                          num_devices: int = 4) -> ExperimentResult:
    """Autoscaler reaction to a bursty tenant: active devices over time."""
    result = ExperimentResult(
        "serving-autoscale",
        f"Autoscaler on {num_devices} devices under bursty load",
    )
    platform = make_cluster_platform(num_devices=num_devices,
                                     backend=EXPERIMENT_BACKEND)
    engine = ServingEngine(
        platform,
        [
            TenantSpec(
                "burst", "vecadd",
                arrivals=ArrivalSpec("bursty", rate_rps=2e5,
                                     burst_rate_rps=2e7, dwell_ns=100_000.0,
                                     requests=requests),
                size=1 << 14, slices=8,
            ),
        ],
        # unbatched: every request is its own launch, so the burst pins the
        # in-flight cap and the utilization signal actually moves
        batch=BatchPolicy(max_batch=1),
        autoscale=AutoscalePolicy(enabled=True, min_devices=1,
                                  interval_ns=10_000.0),
        inflight_per_device=2,
    )
    report = engine.run()
    for when, active in report.active_device_series:
        result.add(t_ns=when, active_devices=active)
    result.headline = {"scale_ups": report.scale_ups,
                       "correct": report.correct}
    result.notes = (
        f"{report.scale_ups} scale-ups / {report.scale_downs} scale-downs; "
        f"p99 {report.p99_ns:,.0f} ns over {report.served} served"
    )
    return result


def run_serving_traced(prefix: str = "serving",
                       requests: int = 48,
                       num_devices: int = 2) -> tuple[str, str]:
    """One traced wfq+batching serving run; exports trace + manifest.

    Enables tracing for the duration of the run, writes
    ``<prefix>.trace.json`` (Chrome trace-event / Perfetto) and
    ``<prefix>.manifest.json`` (with the resolved partition map), prints
    the bottleneck report, and returns both paths.
    """
    was_enabled = obs.enabled()
    obs.set_enabled(True)
    try:
        platform = make_cluster_platform(num_devices=num_devices,
                                         backend=EXPERIMENT_BACKEND)
        engine = ServingEngine(
            platform, default_tenants(requests), scheduler="wfq",
            batch=BatchPolicy(max_batch=8, max_wait_ns=2_000.0),
        )
        report = engine.run()
        tracer = obs.tracer_of(platform.sim)
        trace_path = f"{prefix}.trace.json"
        manifest_path = f"{prefix}.manifest.json"
        obs.write_trace(tracer, trace_path,
                        counters=engine._util.counter_samples())
        obs.write_manifest(
            manifest_path, tracer=tracer, stats=platform.stats,
            config=platform.system,
            seed=platform.runtime.cluster_config.seed,
            partitions=platform.runtime.partitions,
            extra={
                "experiment": "serving_traced",
                "num_devices": num_devices,
                "backend": EXPERIMENT_BACKEND,
                "served": report.served,
                "span_ns": report.span_ns,
                "utilization": engine._util.summary(),
            },
        )
    finally:
        obs.set_enabled(was_enabled)
    print(report.render())
    print()
    with open(trace_path) as fh:
        events = json.load(fh)["traceEvents"]
    print(render(build_report(parse_events(events))))
    print()
    print(f"trace written to {trace_path} (load in https://ui.perfetto.dev)")
    print(f"manifest written to {manifest_path}")
    return trace_path, manifest_path


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Serving experiment sweeps (add --trace for a traced "
                    "run exporting Perfetto trace + run manifest)")
    parser.add_argument(
        "--trace", nargs="?", const="serving", default=None, metavar="PREFIX",
        help="run one traced serving pass and write <PREFIX>.trace.json "
             "and <PREFIX>.manifest.json (default prefix: serving)")
    cli = parser.parse_args()
    if cli.trace is not None:
        run_serving_traced(cli.trace)
    else:
        print(run_serving().render())
        print()
        print(run_serving_autoscale().render())
