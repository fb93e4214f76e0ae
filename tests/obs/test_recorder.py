"""FlightRecorder: bounded memory, eviction order, capacity validation."""

import pytest

from repro.errors import ConfigError
from repro.obs.recorder import RECORDER_CAPACITY, FlightRecorder


class TestRingBuffer:
    def test_records_in_order_with_monotone_seq(self):
        rec = FlightRecorder(capacity=8)
        for i in range(5):
            rec.record("k", float(i * 10), device=i % 2)
        events = rec.events()
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]
        assert [e.t_ns for e in events] == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert len(rec) == 5
        assert rec.dropped == 0

    def test_eviction_drops_oldest_first(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("k", float(i))
        events = rec.events()
        # exactly the last `capacity` records survive, oldest first
        assert [e.seq for e in events] == [6, 7, 8, 9]
        assert rec.dropped == 6
        assert len(rec) == 4
        assert rec.next_seq == 10

    def test_capacity_one(self):
        rec = FlightRecorder(capacity=1)
        rec.record("a", 1.0)
        rec.record("b", 2.0)
        events = rec.events()
        assert len(events) == 1 and events[0].kind == "b"
        assert rec.dropped == 1

    def test_events_filters_by_kind_and_seq(self):
        rec = FlightRecorder(capacity=16)
        rec.record("fault.kill", 1.0, device=1)
        rec.record("serve.retry", 2.0, tenant="t")
        rec.record("fault.detect", 3.0, device=1)
        kills = rec.events(kinds=("fault.kill", "fault.detect"))
        assert [e.kind for e in kills] == ["fault.kill", "fault.detect"]
        late = rec.events(since_seq=2)
        assert [e.kind for e in late] == ["fault.detect"]

    def test_snapshot_is_json_ready_and_omits_empty_fields(self):
        rec = FlightRecorder(capacity=4)
        rec.record("fault.kill", 5.0, device=2)
        rec.record("serve.retry", 6.0, tenant="kv", attempt=1)
        snap = rec.snapshot()
        assert snap[0] == {"seq": 0, "t_ns": 5.0, "kind": "fault.kill",
                           "device": 2}
        assert snap[1]["tenant"] == "kv"
        assert snap[1]["detail"] == {"attempt": 1}
        assert "tenant" not in snap[0]


class TestCapacityKnob:
    def test_default(self):
        assert FlightRecorder().capacity == RECORDER_CAPACITY == 256

    def test_rejects_non_positive(self):
        for capacity in (0, -3):
            with pytest.raises(ConfigError, match=">= 1"):
                FlightRecorder(capacity)
