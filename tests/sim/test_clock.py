"""Tests for clock-domain conversions."""

import pytest

from repro.errors import ConfigError
from repro.sim.clock import Clock


class TestClock:
    def test_ndp_clock_period(self):
        assert Clock.from_ghz(2.0).period_ns == 0.5

    def test_invalid_frequency(self):
        with pytest.raises(ConfigError):
            Clock.from_ghz(0.0)
        with pytest.raises(ConfigError):
            Clock.from_ghz(-1.0)
