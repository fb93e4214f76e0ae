"""SLOMonitor: burn-rate math, transition alerting, fault alerts, knobs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.monitor import (
    DEFAULT_BURN_THRESHOLD,
    Alert,
    SLObjective,
    SLOMonitor,
    default_objectives,
)
from repro.obs.recorder import FlightRecorder
from repro.sim.stats import StatsRegistry

BEAT_NS = 1_000.0
FAST_NS = 2_000.0
SLOW_NS = 6_000.0


def _monitor(objective=None, recorder=None, **kwargs):
    registry = StatsRegistry()
    objectives = {"t": objective or SLObjective()}
    if recorder is None:
        recorder = FlightRecorder()
    monitor = SLOMonitor(registry, objectives, recorder,
                         fast_window_ns=kwargs.pop("fast", FAST_NS),
                         slow_window_ns=kwargs.pop("slow", SLOW_NS),
                         **kwargs)
    return registry, monitor


def _feed(registry, served=0, failed=0, expired=0, shed=0):
    registry.add("serve.t.served", served)
    registry.add("serve.t.failed", failed)
    registry.add("serve.t.expired", expired)
    registry.add("serve.t.shed_queue_full", shed)


def _model_burn(history, now_ns, horizon_ns, budget):
    """Mirror of SLOMonitor._burn_of over _horizon_deltas windows.

    ``history`` holds (end_ns, served, bad) per closed window; windows
    overlapping the horizon count whole, exactly as the monitor slides.
    """
    lo = now_ns - horizon_ns
    served = sum(s for end, s, _ in history if end > lo)
    bad = sum(b for end, _, b in history if end > lo)
    total = served + bad
    if total <= 0:
        return 0.0
    return (bad / total) / budget


class TestBurnMath:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 8), st.integers(0, 4)),
        min_size=1, max_size=24))
    def test_alert_active_iff_both_windows_exceed_threshold(self, traffic):
        """The defining property: burn state matches the window model and
        the alert is active exactly when fast AND slow burns clear the
        threshold."""
        objective = SLObjective()
        registry, monitor = _monitor(objective)
        history = []
        was_active = False
        for beat, (served, failed, expired) in enumerate(traffic, start=1):
            _feed(registry, served=served, failed=failed, expired=expired)
            now = beat * BEAT_NS
            fired = monitor.evaluate(now)
            history.append((now, served, failed + expired))
            fast = _model_burn(history, now, FAST_NS, objective.error_budget)
            slow = _model_burn(history, now, SLOW_NS, objective.error_budget)
            got_fast, got_slow, active = monitor.burn_state("t")
            assert got_fast == pytest.approx(fast)
            assert got_slow == pytest.approx(slow)
            expect_active = (fast >= objective.burn_threshold
                            and slow >= objective.burn_threshold)
            assert active == expect_active
            # transition-edge semantics: fires only on inactive -> active
            burn_fired = [a for a in fired if a.kind == "burn_rate"]
            assert len(burn_fired) == (1 if expect_active
                                       and not was_active else 0)
            was_active = expect_active

    def test_fast_spike_with_healthy_history_stays_quiet(self):
        registry, monitor = _monitor(fast=BEAT_NS)
        for beat in range(1, 6):             # healthy history fills slow
            _feed(registry, served=20)
            assert monitor.evaluate(beat * BEAT_NS) == []
        _feed(registry, served=10, failed=5)  # fast burn 3.3x, slow 0.43x
        fired = monitor.evaluate(6 * BEAT_NS)
        fast, slow, active = monitor.burn_state("t")
        assert fast >= DEFAULT_BURN_THRESHOLD > slow
        assert not active and fired == []

    def test_sustained_failure_fires_once_then_clears(self):
        registry, monitor = _monitor()
        fired_total = []
        for beat in range(1, 5):
            _feed(registry, served=5, failed=5)   # burn 5x in both windows
            fired_total.extend(monitor.evaluate(beat * BEAT_NS))
        assert [a.kind for a in fired_total] == ["burn_rate"]
        alert = fired_total[0]
        assert alert.severity == "page" and alert.tenant == "t"
        assert alert.at_ns == BEAT_NS
        assert alert.fast_burn == pytest.approx(5.0)
        # traffic stops; the windows drain and the alert clears once
        clear_at = None
        for beat in range(5, 14):
            monitor.evaluate(beat * BEAT_NS)
            if monitor.clears and clear_at is None:
                clear_at = monitor.clears[-1][2]
        assert monitor.clears == [("burn_rate", "t", clear_at)]
        assert not monitor.burn_state("t")[2]

    def test_zero_traffic_is_silent(self):
        registry, monitor = _monitor()
        for beat in range(1, 8):
            assert monitor.evaluate(beat * BEAT_NS) == []
        assert monitor.burn_state("t") == (0.0, 0.0, False)


class TestP99Ceiling:
    def test_windowed_p99_over_ceiling_pages_ticket(self):
        objective = SLObjective(p99_ceiling_ns=1_000.0)
        registry, monitor = _monitor(objective)
        registry.observe_many("serve.t.latency_ns", [500.0] * 10)
        _feed(registry, served=10)
        assert monitor.evaluate(BEAT_NS) == []
        registry.observe_many("serve.t.latency_ns", [5_000.0] * 10)
        _feed(registry, served=10)
        fired = monitor.evaluate(2 * BEAT_NS)
        assert [a.kind for a in fired] == ["p99"]
        assert fired[0].severity == "ticket"
        assert fired[0].value > 1_000.0

    def test_p99_alert_clears_when_tail_recovers(self):
        objective = SLObjective(p99_ceiling_ns=1_000.0)
        registry, monitor = _monitor(objective, fast=BEAT_NS)
        registry.observe_many("serve.t.latency_ns", [5_000.0] * 4)
        monitor.evaluate(BEAT_NS)
        registry.observe_many("serve.t.latency_ns", [100.0] * 4)
        monitor.evaluate(2 * BEAT_NS)
        assert ("p99", "t", 2 * BEAT_NS) in monitor.clears


class TestFaultAlerts:
    def test_detection_records_surface_as_typed_alerts(self):
        recorder = FlightRecorder(capacity=16)
        registry, monitor = _monitor(recorder=recorder)
        recorder.record("fault.detect", 700.0, device=1)
        recorder.record("fault.stall", 800.0, device=2)
        fired = monitor.evaluate(BEAT_NS)
        assert [(a.kind, a.severity, a.device) for a in fired] == [
            ("device_down", "page", 1),
            ("device_degraded", "ticket", 2),
        ]
        # Alert.value carries the detection timestamp -> MTTA derivable
        assert fired[0].value == 700.0
        assert fired[0].at_ns == BEAT_NS

    def test_recorder_watermark_prevents_duplicate_alerts(self):
        recorder = FlightRecorder(capacity=16)
        registry, monitor = _monitor(recorder=recorder)
        recorder.record("fault.poison", 500.0, device=None)
        assert [a.kind for a in monitor.evaluate(BEAT_NS)] == ["poison"]
        assert monitor.evaluate(2 * BEAT_NS) == []
        recorder.record("fault.link_flap", 2_500.0, device=3)
        assert [a.kind for a in monitor.evaluate(3 * BEAT_NS)] \
            == ["device_degraded"]

    def test_non_fault_records_do_not_alert(self):
        recorder = FlightRecorder(capacity=16)
        registry, monitor = _monitor(recorder=recorder)
        recorder.record("serve.launch", 100.0, tenant="t", batch=4)
        recorder.record("sched.issue", 200.0, device=0)
        assert monitor.evaluate(BEAT_NS) == []


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 8)),
        min_size=1, max_size=16))
    def test_identical_inputs_identical_alert_stream(self, traffic):
        def run():
            registry, monitor = _monitor()
            for beat, (served, failed) in enumerate(traffic, start=1):
                _feed(registry, served=served, failed=failed)
                monitor.evaluate(beat * BEAT_NS)
            return ([a.to_dict() for a in monitor.alerts], monitor.clears)

        assert run() == run()


class TestValidation:
    def test_objective_floor_must_leave_budget(self):
        with pytest.raises(ConfigError, match="attainment_floor"):
            SLObjective(attainment_floor=1.0)
        with pytest.raises(ConfigError, match="attainment_floor"):
            SLObjective(attainment_floor=-0.1)

    def test_objective_rejects_bad_ceiling_and_threshold(self):
        with pytest.raises(ConfigError, match="p99_ceiling_ns"):
            SLObjective(p99_ceiling_ns=0.0)
        with pytest.raises(ConfigError, match="burn_threshold"):
            SLObjective(burn_threshold=0.0)
        with pytest.raises(ConfigError, match="burn_threshold"):
            SLObjective(burn_threshold=math.inf)

    def test_monitor_rejects_inverted_windows(self):
        registry = StatsRegistry()
        with pytest.raises(ConfigError, match="must not exceed"):
            SLOMonitor(registry, {"t": SLObjective()}, FlightRecorder(),
                       fast_window_ns=10_000.0, slow_window_ns=5_000.0)
        with pytest.raises(ConfigError, match="positive"):
            SLOMonitor(registry, {"t": SLObjective()}, FlightRecorder(),
                       fast_window_ns=0.0)

    def test_default_objectives_inherit_threshold(self):
        slos = default_objectives(["a", "b"])
        assert set(slos) == {"a", "b"}
        assert all(o == SLObjective() for o in slos.values())
        assert DEFAULT_BURN_THRESHOLD == SLObjective().burn_threshold == 2.0

    def test_alert_to_dict_shapes(self):
        burn = Alert("burn_rate", 10.0, "page", tenant="t",
                     fast_burn=3.0, slow_burn=2.5)
        assert burn.to_dict() == {
            "kind": "burn_rate", "at_ns": 10.0, "severity": "page",
            "tenant": "t", "fast_burn": 3.0, "slow_burn": 2.5,
        }
        down = Alert("device_down", 20.0, "page", device=1, value=15.0,
                     detail="fault.detect at 15 ns")
        assert down.to_dict() == {
            "kind": "device_down", "at_ns": 20.0, "severity": "page",
            "device": 1, "value": 15.0, "detail": "fault.detect at 15 ns",
        }


class TestReusedPlatform:
    """A second engine on one platform shares the registry — and the
    tenant's latency distribution — with the first."""

    def _two_runs(self, ceiling_ns, incident_dir):
        from repro.cluster import make_cluster_platform
        from repro.serve import (ArrivalSpec, BatchPolicy, ServingEngine,
                                 TenantSpec)

        incident_dir.mkdir()      # the slow run rightly alerts: bundles
        platform = make_cluster_platform(num_devices=1, backend="batched")

        def run(requests, rate_rps):
            spec = TenantSpec(
                "t", "vecadd", size=256, slices=4,
                arrivals=ArrivalSpec("poisson", rate_rps=rate_rps,
                                     requests=requests))
            engine = ServingEngine(
                platform, [spec], monitoring=True, inflight_per_device=1,
                batch=BatchPolicy(max_batch=1),
                objectives={"t": SLObjective(p99_ceiling_ns=ceiling_ns)},
                incident_dir=str(incident_dir))
            return engine, engine.run()

        _, slow = run(40, 1e9)            # one burst: requests queue up
        engine, fast = run(8, 1e4)        # sparse: served on arrival
        return slow, engine, fast

    def test_first_window_holds_only_this_runs_latencies(self, tmp_path):
        slow, _, fast = self._two_runs(math.inf, tmp_path / "dry")
        slow_lat, fast_lat = slow.aggregate.samples, fast.aggregate.samples
        assert (len(slow_lat), len(fast_lat)) == (40, 8)
        # the runs are deterministic, so a ceiling picked from the dry
        # run separates the same two populations in the monitored run
        ceiling = 2.0 * max(fast_lat)
        assert sorted(slow_lat)[len(slow_lat) // 2] > ceiling

        _, engine, fast_again = self._two_runs(ceiling, tmp_path / "real")
        assert fast_again.aggregate.samples == fast_lat
        assert [a for a in engine.monitoring.monitor.alerts
                if a.kind == "p99"] == []
