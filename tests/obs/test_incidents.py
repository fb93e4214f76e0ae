"""Incident bundles end to end: coherent timelines, self-grading against
the armed fault plan, CLI rendering, and the observation-only invariant."""

import json

from repro.cluster import make_cluster_platform
from repro.faults import FaultEvent, FaultPlan
from repro.faults.injector import DEFAULT_HEARTBEAT_NS
from repro.obs.incidents import (
    INCIDENT_SCHEMA,
    correlate,
    grade_against_plan,
    main as incidents_main,
    render_bundle,
)
from repro.obs.monitor import DEFAULT_MONITOR_INTERVAL_NS, Monitoring
from repro.obs.recorder import RECORDER_CAPACITY
from repro.serve import ArrivalSpec, RetryPolicy, ServingEngine, TenantSpec

KILL_MID_TRAFFIC = FaultPlan(events=(
    FaultEvent("device_fail", at_ns=3_000.0, device=1),
))


def _scan_tenant(requests=16):
    return TenantSpec(
        "scan", "olap",
        arrivals=ArrivalSpec("poisson", rate_rps=2e6, requests=requests),
        qos_class="interactive", slo_ns=5_000_000.0, size=1 << 17,
        slices=4, placement="replicated",
        retry=RetryPolicy(max_retries=3, backoff_ns=500.0,
                          jitter_ns=200.0, deadline_aware=True),
    )


def _kill_run(plan=KILL_MID_TRAFFIC, incident_dir=None, **engine_kwargs):
    platform = make_cluster_platform(num_devices=4, backend="batched")
    injector = platform.runtime.arm_faults(plan)
    engine = ServingEngine(platform, [_scan_tenant()], monitoring=True,
                           incident_dir=incident_dir, **engine_kwargs)
    report = engine.run()
    return platform, injector, engine, report


class TestIncidentBundles:
    def test_device_kill_produces_coherent_bundle(self):
        _, injector, engine, report = _kill_run()
        assert report.tenant("scan").served == 16
        assert len(engine.monitoring.reporter.bundles) >= 1
        sources = {b["trigger"]["source"] for b in engine.monitoring.reporter.bundles}
        assert "fault_detected" in sources or "alert" in sources
        bundle = engine.monitoring.reporter.bundles[-1]   # fullest ring snapshot
        assert bundle["schema"] == INCIDENT_SCHEMA
        kinds = [row["kind"] for row in bundle["timeline"]]
        assert "fault.kill" in kinds
        assert "fault.detect" in kinds
        # kill <= detect <= recover ordering in the reconstructed timeline
        t = {row["kind"]: row["t_ns"] for row in bundle["timeline"]}
        assert t["fault.kill"] <= t["fault.detect"]
        recover = [row for row in bundle["timeline"]
                   if row["kind"] == "recovery.failover"]
        assert recover and recover[0]["t_ns"] >= t["fault.detect"]
        assert bundle["counters"]["fault.device_kills"] == 1

    def test_correlation_grades_the_armed_plan(self):
        _, injector, engine, _ = _kill_run()
        rows = engine.monitoring.reporter.bundles[-1].get("correlation")
        assert rows is not None and len(rows) == 1
        row = rows[0]
        assert row["kind"] == "device_fail" and row["device"] == 1
        assert row["detected_ns"] is not None
        # detection is heartbeat-quantized: at most one beat after the kill
        assert 0.0 <= row["mttd_ns"] <= DEFAULT_HEARTBEAT_NS
        assert row["mttr_ns"] is not None and row["mttr_ns"] >= 0.0
        # replicated placement fails over without re-copy
        assert row["recovered_ns"] >= row["detected_ns"]

    def test_grade_recall_one_and_mtta_within_a_beat(self):
        _, injector, engine, _ = _kill_run()
        grade = grade_against_plan(injector, engine.monitoring.monitor.alerts)
        assert grade["events"] == 1
        assert grade["recall"] == 1.0
        assert grade["precision"] == 1.0
        assert grade["max_mtta_ns"] <= DEFAULT_MONITOR_INTERVAL_NS
        assert grade["mean_mttd_ns"] > 0.0

    def test_healthy_run_is_silent(self):
        _, injector, engine, _ = _kill_run(plan=FaultPlan.none())
        assert engine.monitoring.monitor.alerts == []
        assert engine.monitoring.reporter.bundles == []
        grade = grade_against_plan(injector, engine.monitoring.monitor.alerts)
        assert grade["recall"] == 1.0 and grade["precision"] == 1.0

    def test_bundles_written_to_incident_dir(self, tmp_path):
        _, _, engine, _ = _kill_run(incident_dir=str(tmp_path))
        paths = engine.monitoring.reporter.paths
        assert len(paths) == len(engine.monitoring.reporter.bundles)
        with open(paths[0]) as fh:
            on_disk = json.load(fh)
        assert on_disk["schema"] == INCIDENT_SCHEMA
        assert on_disk["seq"] == engine.monitoring.reporter.bundles[0]["seq"]
        # bundles are wall-clock free: every timestamp is simulated ns
        assert "wall" not in json.dumps(on_disk)

    def test_cooldown_collapses_alert_storm(self):
        _, _, engine, _ = _kill_run()
        # one kill must not fan out into one bundle per symptom; the
        # cooldown caps distinct trigger keys, not repeated firings
        triggers = [b["trigger"]["source"] for b in engine.monitoring.reporter.bundles]
        assert len(triggers) == len(set(
            (b["trigger"]["source"], b["trigger"].get("kind"),
             b["trigger"].get("device")) for b in engine.monitoring.reporter.bundles))

    def test_render_bundle_mentions_trigger_and_correlation(self):
        _, _, engine, _ = _kill_run()
        text = render_bundle(engine.monitoring.reporter.bundles[-1])
        assert "incident #" in text
        assert "fault correlation" in text
        assert "device=1" in text


class TestDegradationMTTR:
    def test_mttr_comes_from_real_recoveries_only(self):
        """A stall's MTTR is the time to the device's actual return to
        UP: the end of the *last* overlapping window, and nothing at all
        for a device that died inside the window."""
        platform = make_cluster_platform(num_devices=4, backend="batched")
        runtime = platform.runtime
        runtime.monitoring = Monitoring(runtime, [])
        injector = runtime.arm_faults(FaultPlan(events=(
            FaultEvent("device_stall", at_ns=1_000.0, device=1,
                       duration_ns=20_000.0),
            FaultEvent("link_flap", at_ns=2_000.0, device=1,
                       duration_ns=3_000.0),
            FaultEvent("device_stall", at_ns=1_000.0, device=2,
                       duration_ns=30_000.0),
            FaultEvent("device_fail", at_ns=8_000.0, device=2),
        )))
        runtime.sim.run()
        rows = {(row["kind"], row["device"]): row for row in correlate(
            injector, runtime.monitoring.recorder.snapshot(), [])}
        stall, flap = rows["device_stall", 1], rows["link_flap", 1]
        doomed, kill = rows["device_stall", 2], rows["device_fail", 2]
        assert (stall["recovered_ns"], stall["mttr_ns"]) == (21_000.0,
                                                             20_000.0)
        assert (flap["recovered_ns"], flap["mttr_ns"]) == (21_000.0,
                                                           19_000.0)
        assert doomed["detected_ns"] == 1_000.0
        assert doomed["recovered_ns"] is None and doomed["mttr_ns"] is None
        assert kill["detected_ns"] == 10_000.0


class TestObservationOnly:
    def _signature(self, monitoring):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        platform.runtime.arm_faults(KILL_MID_TRAFFIC)
        engine = ServingEngine(platform, [_scan_tenant()],
                               monitoring=monitoring)
        report = engine.run()
        return (engine.result_snapshots(), report.aggregate.samples,
                {k: v for k, v in platform.stats.snapshot().items()
                 if not k.startswith("monitor.")})

    def test_monitoring_never_changes_results(self):
        assert self._signature(True) == self._signature(False)

    def test_monitor_off_builds_nothing(self):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        engine = ServingEngine(platform, [_scan_tenant()], monitoring=False)
        assert engine.monitoring is None
        assert platform.runtime.monitoring is None
        report = engine.run()
        assert report.tenant("scan").served == 16

    def test_unmonitored_engine_detaches_the_previous_engines_stack(self):
        """An engine run with monitoring off must not write into the ring
        of a monitored engine that ran before it on the same platform."""
        platform = make_cluster_platform(num_devices=4, backend="batched")
        first = ServingEngine(platform, [_scan_tenant()], monitoring=True)
        first.run()
        ring = first.monitoring.recorder
        seen = ring.next_seq
        assert seen > 0
        second = ServingEngine(platform, [_scan_tenant()], monitoring=False)
        assert platform.runtime.monitoring is None
        assert second.run().tenant("scan").served == 16
        assert ring.next_seq == seen

    def test_identical_runs_identical_bundles(self):
        def bundles():
            _, _, engine, _ = _kill_run()
            return json.dumps(engine.monitoring.reporter.bundles, sort_keys=True)
        assert bundles() == bundles()


class TestEngineKnobs:
    def test_recorder_capacity_bounds_engine_ring(self):
        platform = make_cluster_platform(num_devices=4, backend="batched")
        platform.runtime.arm_faults(KILL_MID_TRAFFIC)
        engine = ServingEngine(platform, [_scan_tenant(requests=192)],
                               monitoring=True)
        engine.run()
        ring = engine.monitoring.recorder
        assert ring.capacity == RECORDER_CAPACITY
        assert len(ring) == RECORDER_CAPACITY
        assert ring.dropped == ring.next_seq - RECORDER_CAPACITY > 0


class TestIncidentsCLI:
    def test_renders_bundle_file(self, tmp_path, capsys):
        _, _, engine, _ = _kill_run(incident_dir=str(tmp_path))
        assert incidents_main([engine.monitoring.reporter.paths[0]]) == 0
        out = capsys.readouterr().out
        assert "incident #0" in out

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "incident-0000.json"
        bad.write_text("{not json")
        assert incidents_main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"schema": "something-else"}))
        assert incidents_main([str(bad)]) == 2
        assert INCIDENT_SCHEMA in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert incidents_main([str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err
