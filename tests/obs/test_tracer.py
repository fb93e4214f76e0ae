"""Unit tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.obs import tracer as obs_tracer
from repro.obs.tracer import HOST_PID, Tracer, tracer_of
from repro.sim.engine import Simulator


@pytest.fixture
def restore_enabled():
    prior = obs_tracer.ENABLED
    yield
    obs_tracer.set_enabled(prior)


class TestSpanLifecycle:
    def test_begin_end_round_trip(self):
        tracer = Tracer()
        span_id = tracer.begin("stage", 10.0, tenant="web")
        tracer.end(span_id, 25.0, outcome="served")
        [span] = tracer.finalize()
        assert span.name == "stage"
        assert span.start_ns == 10.0
        assert span.end_ns == 25.0
        assert span.duration_ns == 15.0
        assert span.args == {"tenant": "web", "outcome": "served"}

    def test_end_none_is_noop(self):
        tracer = Tracer()
        tracer.end(None, 5.0)
        assert tracer.finalize() == []

    def test_record_and_instant(self):
        tracer = Tracer()
        rec = tracer.record("bounded", 1.0, 3.0, bytes=64)
        mark = tracer.instant("marker", 2.0, reason="hit")
        spans = {s.span_id: s for s in tracer.finalize()}
        assert spans[rec].duration_ns == 2.0
        assert spans[mark].start_ns == spans[mark].end_ns == 2.0

    def test_finalize_closes_open_spans(self):
        tracer = Tracer()
        open_id = tracer.begin("never_ended", 7.0)
        [span] = tracer.finalize()
        assert span.span_id == open_id
        assert span.end_ns == 7.0

    def test_finalize_idempotent(self):
        tracer = Tracer()
        tracer.record("a", 0.0, 1.0)
        first = tracer.finalize()
        assert tracer.finalize() == first


class TestLanesAndStitching:
    def test_alloc_tid_is_per_pid(self):
        tracer = Tracer()
        assert tracer.alloc_tid(0) == 0
        assert tracer.alloc_tid(0) == 1
        assert tracer.alloc_tid(3) == 0

    def test_children_inherit_parent_lane(self):
        tracer = Tracer()
        lane = tracer.alloc_tid(HOST_PID)
        root = tracer.begin("root", 0.0, tid=lane)
        child = tracer.begin("child", 1.0, parent=root)
        tracer.end(child, 2.0)
        tracer.end(root, 3.0)
        spans = {s.span_id: s for s in tracer.finalize()}
        assert spans[child].tid == lane

    def test_cross_pid_child_gets_own_lane(self):
        tracer = Tracer()
        root = tracer.begin("root", 0.0, pid=0, tid=tracer.alloc_tid(0))
        child = tracer.begin("child", 1.0, parent=root, pid=2)
        tracer.end(child, 2.0)
        tracer.end(root, 3.0)
        spans = {s.span_id: s for s in tracer.finalize()}
        assert spans[child].tid is not None

    def test_instance_link_resolves_after_recording(self):
        # The cluster learns a sub-launch's instance id only after the
        # backend may have recorded its span: the link must still adopt.
        tracer = Tracer()
        exec_span = tracer.record("exec.batched", 5.0, 9.0, pid=2,
                                  instance=17)
        lane = tracer.alloc_tid(2)
        parent = tracer.record("cluster.sub_launch", 4.0, 10.0, pid=2,
                               tid=lane)
        tracer.link_instance(2, 17, parent, lane)
        spans = {s.span_id: s for s in tracer.finalize()}
        assert spans[exec_span].parent_id == parent
        assert spans[exec_span].tid == lane

    def test_unlinked_instance_stays_root(self):
        tracer = Tracer()
        orphan = tracer.record("exec.point", 0.0, 1.0, pid=1, instance=99)
        spans = {s.span_id: s for s in tracer.finalize()}
        assert spans[orphan].parent_id is None

    def test_aggregates_self_time(self):
        tracer = Tracer()
        root = tracer.record("outer", 0.0, 10.0)
        tracer.record("inner", 2.0, 6.0, parent=root)
        agg = tracer.aggregates()
        assert agg["outer"]["total_ns"] == 10.0
        assert agg["outer"]["self_ns"] == 6.0
        assert agg["inner"]["count"] == 1
        assert list(agg) == sorted(agg)


class TestEnabledFlag:
    def test_tracer_of_null_when_disabled(self, restore_enabled):
        obs_tracer.set_enabled(False)
        assert tracer_of(Simulator()) is None

    def test_tracer_of_caches_per_sim(self, restore_enabled):
        obs_tracer.set_enabled(True)
        sim = Simulator()
        assert tracer_of(sim) is tracer_of(sim)
