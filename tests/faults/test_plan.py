"""FaultPlan/FaultEvent validation."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultEvent, FaultPlan


class TestFaultEvent:
    def test_valid_kinds_only(self):
        with pytest.raises(ConfigError):
            FaultEvent("meteor_strike", at_ns=10.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent("device_fail", at_ns=-1.0)

    def test_stall_needs_duration(self):
        with pytest.raises(ConfigError):
            FaultEvent("device_stall", at_ns=10.0, duration_ns=0.0)

    def test_poison_needs_range(self):
        with pytest.raises(ConfigError):
            FaultEvent("poison", at_ns=10.0, base=0x1000, size=0)


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=50.0, device=1),
            FaultEvent("device_stall", at_ns=10.0, device=0,
                       duration_ns=5.0),
        ))
        assert [e.at_ns for e in plan.events] == [10.0, 50.0]

    def test_none_is_empty(self):
        assert FaultPlan.none().events == ()
        assert FaultPlan(events=(
            FaultEvent("device_fail", at_ns=1.0),
        )).events

    def test_of_kind_filters(self):
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=1.0, device=0),
            FaultEvent("link_flap", at_ns=2.0, device=1, duration_ns=3.0),
        ))
        assert len(plan.of_kind("device_fail")) == 1
        assert plan.of_kind("poison") == ()

    def test_validate_rejects_out_of_range_device(self):
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=1.0, device=7),
        ))
        with pytest.raises(ConfigError):
            plan.validate_against(4)

    def test_validate_rejects_duplicate_kills(self):
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=1.0, device=1),
            FaultEvent("device_fail", at_ns=2.0, device=1),
        ))
        with pytest.raises(ConfigError):
            plan.validate_against(4)

    def test_validate_requires_a_survivor(self):
        plan = FaultPlan(events=(
            FaultEvent("device_fail", at_ns=1.0, device=0),
            FaultEvent("device_fail", at_ns=2.0, device=1),
        ))
        with pytest.raises(ConfigError):
            plan.validate_against(2)
        assert plan.validate_against(3) is plan

