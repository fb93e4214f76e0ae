"""Chrome trace-event export + run-manifest schema tests."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.export import (
    MANIFEST_SCHEMA,
    run_manifest,
    to_chrome_trace,
    write_manifest,
    write_trace,
)
from repro.obs.report import build_report, parse_events
from repro.obs.tracer import Tracer, read_environment


def _sample_tracer() -> Tracer:
    """Host request chain plus two device-side launches, one linked."""
    tracer = Tracer()
    lane = tracer.alloc_tid(0)
    root = tracer.begin("serve.request", 0.0, tid=lane, tenant="web",
                        index=0)
    queue = tracer.record("serve.queue", 0.0, 5.0, parent=root)
    assert queue is not None
    sub_lane = tracer.alloc_tid(1)
    sub = tracer.record("cluster.sub_launch", 5.0, 20.0, parent=root,
                        pid=1, tid=sub_lane)
    tracer.record("exec.batched", 6.0, 19.0, pid=1, instance=3)
    tracer.link_instance(1, 3, sub, sub_lane)
    tracer.instant("exec.fallback", 7.0, pid=1, reason="atomics")
    tracer.end(root, 20.0, outcome="served")
    return tracer


def _validate_chrome(events: list[dict]) -> None:
    """The invariants chrome://tracing / Perfetto rely on."""
    stacks: dict[tuple, list[str]] = {}
    last_ts = None
    for event in events:
        phase = event["ph"]
        assert phase in ("M", "B", "E", "i", "C")
        if phase == "M":
            continue
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int), \
            f"unresolved lane on {event['name']}"
        if last_ts is not None:
            assert event["ts"] >= last_ts, "timestamps must be sorted"
        last_ts = event["ts"]
        lane = (event["pid"], event["tid"])
        if phase == "B":
            stacks.setdefault(lane, []).append(event["name"])
        elif phase == "E":
            assert stacks.get(lane), f"E without B on lane {lane}"
            stacks[lane].pop()
    assert not any(stacks.values()), f"unclosed B events: {stacks}"


class TestChromeTrace:
    def test_schema_and_stack_discipline(self):
        payload = to_chrome_trace(_sample_tracer())
        assert payload["displayTimeUnit"] == "ns"
        _validate_chrome(payload["traceEvents"])

    def test_metadata_names_processes(self):
        payload = to_chrome_trace(_sample_tracer())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in meta}
        assert names[0] == "serving-host"
        assert names[1] == "device0"

    def test_zero_duration_childless_becomes_instant(self):
        payload = to_chrome_trace(_sample_tracer())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"exec.fallback"}

    def test_linked_exec_nests_inside_sub_launch(self):
        # the instance-linked exec span must land between its adopted
        # parent's B and E on the device lane
        events = to_chrome_trace(_sample_tracer())["traceEvents"]
        device = [e for e in events
                  if e["ph"] in ("B", "E") and e["pid"] == 1]
        names = [(e["ph"], e["name"]) for e in device]
        assert names == [("B", "cluster.sub_launch"), ("B", "exec.batched"),
                         ("E", "exec.batched"), ("E", "cluster.sub_launch")]

    def test_counter_samples_become_c_events(self):
        counters = [("device0.l2.hit_rate", 1, 1_000.0, 0.75)]
        events = to_chrome_trace(_sample_tracer(), counters)["traceEvents"]
        [c] = [e for e in events if e["ph"] == "C"]
        assert c["args"]["value"] == 0.75
        assert c["ts"] == 1.0  # ns scaled to us

    def test_ns_to_us_scaling(self):
        events = to_chrome_trace(_sample_tracer())["traceEvents"]
        root_b = next(e for e in events
                      if e["ph"] == "B" and e["name"] == "serve.request")
        root_e = next(e for e in events
                      if e["ph"] == "E" and e["name"] == "serve.request")
        assert root_b["ts"] == 0.0
        assert root_e["ts"] == 0.02  # 20 ns

    def test_report_round_trip(self, tmp_path):
        path = write_trace(_sample_tracer(), str(tmp_path / "t.json"))
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        roots = parse_events(events)
        report = build_report(roots)
        assert report["stages"]["serve.request"]["count"] == 1
        assert report["tenants"]["web"]["count"] == 1


class TestManifest:
    def test_schema_and_sorted_counters(self):
        from repro.sim.stats import StatsRegistry
        stats = StatsRegistry()
        stats.add("z.last")
        stats.add("a.first")
        manifest = run_manifest(tracer=_sample_tracer(), stats=stats,
                                seed=42, extra={"experiment": "unit"})
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["seed"] == 42
        assert manifest["experiment"] == "unit"
        assert list(manifest["counters"]) == ["a.first", "z.last"]
        assert "env" not in manifest
        assert "serve.request" in manifest["span_aggregates"]

    def test_unregistered_repro_variables_are_recorded(self):
        # no setting is left to record: a typo'd or retired variable
        # fails at import instead, naming every stray one
        with pytest.raises(ConfigError) as err:
            read_environment({"REPRO_SERVE_MAXBATCH": "4",
                              "REPRO_SERVE_MAX_BATCH": "4",
                              "REPRO_TRACE": "0"})
        assert str(err.value).startswith(
            "REPRO_SERVE_MAXBATCH, REPRO_SERVE_MAX_BATCH: not read")
        assert "env_unknown" not in run_manifest()

    def test_write_manifest_is_stable_json(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_manifest(path, seed=1)
        with open(path) as fh:
            text = fh.read()
        assert json.loads(text)["seed"] == 1
        # stable formatting: sorted keys survive a round trip
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
