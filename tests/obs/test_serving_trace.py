"""End-to-end tracing of the serving engine on a 2-device cluster.

The guarantees the subsystem sells: (a) one serving request's spans
stitch into a single rooted tree even when its work fans out across
devices, (b) the exported Chrome trace keeps stack discipline and sorted
timestamps, and (c) running with tracing off is byte-identical — in
results *and* simulated timings — to running with it on.
"""

import pytest

from repro.cluster import make_cluster_platform
from repro.obs import tracer as obs_tracer
from repro.obs.export import to_chrome_trace
from repro.obs.report import build_report, parse_events
from repro.serve import ArrivalSpec, BatchPolicy, ServingEngine, TenantSpec

EXEC_SPANS = {"exec.interpreter", "exec.batched", "exec.simt", "exec.point"}


def _tenants(requests: int = 10) -> list[TenantSpec]:
    # slices=4 on a 2-device interleaved cluster: every launch fans out
    # to both devices, so cross-device stitching is actually exercised
    return [
        TenantSpec(name, "vecadd",
                   arrivals=ArrivalSpec("poisson", rate_rps=1e7,
                                        requests=requests),
                   size=1 << 10, slices=4)
        for name in ("web", "bulk")
    ]


def recorded_launches(runtime) -> list:
    """Collects every logical launch issued on ``runtime`` from now on:
    a controller keeps no finished asynchronous instance, its launch
    handle does."""
    launches = []
    issue = runtime.launch_async

    def recording(*args, **kwargs):
        launches.append(issue(*args, **kwargs))
        return launches[-1]

    runtime.launch_async = recording
    return launches


def _run(trace: bool):
    prior = obs_tracer.ENABLED
    obs_tracer.set_enabled(trace)
    try:
        platform = make_cluster_platform(num_devices=2, backend="batched")
        launches = recorded_launches(platform.runtime)
        engine = ServingEngine(
            platform, _tenants(), scheduler="wfq",
            batch=BatchPolicy(max_batch=4, max_wait_ns=2_000.0),
        )
        report = engine.run()
        tracer = obs_tracer.tracer_of(platform.sim) if trace else None
    finally:
        obs_tracer.set_enabled(prior)
    return platform, engine, report, tracer, launches


def _signature(report) -> dict:
    return {
        "span_ns": report.span_ns,
        "served": report.served,
        "latencies": [list(t.latencies.samples) for t in report.tenants],
        "completions": [list(t.completion_times) for t in report.tenants],
    }


@pytest.fixture(scope="module")
def traced_run():
    return _run(True)


class TestRequestTree:
    def test_every_parent_link_resolves(self, traced_run):
        _, _, _, tracer, _ = traced_run
        spans = tracer.finalize()
        ids = {s.span_id for s in spans}
        assert spans
        for span in spans:
            assert span.parent_id is None or span.parent_id in ids

    def test_request_spans_form_single_tree_across_devices(self, traced_run):
        _, _, report, tracer, _ = traced_run
        spans = tracer.finalize()
        by_id = {s.span_id: s for s in spans}

        def root_of(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
            return span

        requests = [s for s in spans if s.name == "serve.request"]
        assert len(requests) == report.offered

        # every serving-stage span roots at a serve.request
        for span in spans:
            if span.name.startswith("serve."):
                assert root_of(span).name == "serve.request"

        # pids reachable from each request root: at least one request's
        # tree spans the host AND both devices (fan-out stitched back)
        pids_by_root: dict[int, set[int]] = {}
        for span in spans:
            root = root_of(span)
            if root.name == "serve.request":
                pids_by_root.setdefault(root.span_id, set()).add(span.pid)
        assert any(pids >= {0, 1, 2} for pids in pids_by_root.values())

    def test_exec_spans_adopted_under_their_sub_launch(self, traced_run):
        _, _, _, tracer, _ = traced_run
        spans = tracer.finalize()
        by_id = {s.span_id: s for s in spans}
        execs = [s for s in spans if s.name in EXEC_SPANS]
        assert execs
        for span in execs:
            assert span.parent_id is not None, \
                f"unstitched exec span {span!r}"
            parent = by_id[span.parent_id]
            assert parent.name == "cluster.sub_launch"
            assert parent.pid == span.pid
            # adoption also inherits the sub-launch's swim-lane
            assert span.tid == parent.tid

    def test_exec_spans_cover_the_traced_launches_runtime(self, traced_run):
        platform, _, _, tracer, launches = traced_run
        exec_ns: dict[tuple[int, int], float] = {}
        for span in tracer.finalize():
            if span.name in EXEC_SPANS and span.instance_key is not None:
                exec_ns[span.instance_key] = (
                    exec_ns.get(span.instance_key, 0.0) + span.duration_ns)
        covered = runtime = 0.0
        for handle in launches:
            for sub, sub_handle in zip(handle.plan, handle.subs):
                inst = sub_handle.instance
                pid = platform.devices[sub.device].trace_pid
                spanned = exec_ns.get((pid, inst.instance_id))
                if (spanned is None or inst.start_ns is None
                        or inst.complete_ns is None):
                    continue
                covered += min(spanned, inst.runtime_ns)
                runtime += inst.runtime_ns
        assert runtime > 0
        assert covered / runtime >= 0.9

    def test_utilization_sampler_ran(self, traced_run):
        _, engine, _, _, _ = traced_run
        assert engine._util is not None
        samples = engine._util.counter_samples()
        assert samples
        names = {name for name, _, _, _ in samples}
        assert any("occupancy" in name for name in names)
        summary = engine._util.summary()
        assert set(summary) == {"device0", "device1"}


class TestExportedTrace:
    def test_chrome_schema_holds_on_real_run(self, traced_run):
        _, engine, _, tracer, _ = traced_run
        payload = to_chrome_trace(tracer,
                                  counters=engine._util.counter_samples())
        events = payload["traceEvents"]
        last_ts = None
        stacks: dict[tuple, int] = {}
        for event in events:
            if event["ph"] == "M":
                continue
            assert isinstance(event["tid"], int)
            if last_ts is not None:
                assert event["ts"] >= last_ts
            last_ts = event["ts"]
            lane = (event["pid"], event["tid"])
            if event["ph"] == "B":
                stacks[lane] = stacks.get(lane, 0) + 1
            elif event["ph"] == "E":
                assert stacks.get(lane, 0) > 0, f"E without B on {lane}"
                stacks[lane] -= 1
        assert not any(stacks.values())

    def test_report_parses_and_attributes_tenants(self, traced_run):
        _, _, report, tracer, _ = traced_run
        roots = parse_events(to_chrome_trace(tracer)["traceEvents"])
        built = build_report(roots)
        assert set(built["tenants"]) == {"web", "bulk"}
        total_requests = sum(a["count"] for a in built["tenants"].values())
        assert total_requests == report.offered


class TestTracingIsPureObservation:
    def test_off_runs_identical_and_on_run_matches(self, traced_run):
        _, engine_on, report_on, _, _ = traced_run
        _, engine_a, report_a, _, _ = _run(False)
        _, engine_b, report_b, _, _ = _run(False)
        # off vs off: the workload itself is deterministic
        assert engine_a.result_snapshots() == engine_b.result_snapshots()
        assert _signature(report_a) == _signature(report_b)
        # off vs on: tracing changed nothing — results or sim timings
        assert engine_a.result_snapshots() == engine_on.result_snapshots()
        assert _signature(report_a) == _signature(report_on)

    def test_disabled_run_allocates_no_tracer(self):
        platform, _, _, _, _ = _run(False)
        assert not hasattr(platform.sim, "_obs_tracer")
