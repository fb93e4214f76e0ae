"""Autoscaler hook: grow/shrink the active device set against utilization.

The serving engine dispatches at most ``active_devices x
inflight_per_device`` concurrent cluster launches; the autoscaler is the
hook that moves ``active_devices`` between ``min_devices`` and the
whole cluster from windowed utilization observations (time-weighted
in-flight launches over capacity).  Utilization above the high watermark
grows the set by one device per interval, below the low watermark shrinks
it — the standard hysteresis loop, sized so a bursty tenant ramps the
cluster up within a few intervals and a quiet diurnal trough releases it.

This models capacity the way datacenter serving stacks do (admission to
the device pool), not device power-down: the devices still exist behind
the switch, the engine just stops filling more of them with work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (AT_LEAST_ONE, FLAG, POSITIVE, ConfigError,
                          check_fields, setting)
from repro.sim.stats import StepSeries

#: Utilization above which the set grows, and below which it shrinks.
HIGH_WATERMARK = 0.85
LOW_WATERMARK = 0.30


@dataclass(frozen=True)
class AutoscalePolicy:
    """Hysteresis scaling policy (disabled by default: fixed full set).

    Scaling moves only the concurrency cap: every device stays routable,
    and in-flight work is never quiesced onto fewer devices.
    """

    enabled: bool = setting(FLAG, False)
    min_devices: int = setting(AT_LEAST_ONE, 1)
    interval_ns: float = setting(POSITIVE, 50_000.0)

    def __post_init__(self) -> None:
        check_fields(self)


class Autoscaler:
    """Tracks the active device count from utilization observations."""

    def __init__(self, policy: AutoscalePolicy, num_devices: int) -> None:
        self.policy = policy
        self.num_devices = num_devices
        if policy.min_devices > num_devices:
            raise ConfigError(
                f"autoscaler min_devices {policy.min_devices} exceeds the "
                f"cluster's {num_devices} devices"
            )
        self.active = (policy.min_devices if policy.enabled
                       else num_devices)
        self.scale_ups = 0
        self.scale_downs = 0
        #: (time, active devices) step series for reports.
        self.series = StepSeries()
        self.series.record(0.0, float(self.active))

    def observe(self, now_ns: float, utilization: float) -> int:
        """Feed one interval's utilization; returns the new active count."""
        if not self.policy.enabled:
            return self.active
        if (utilization > HIGH_WATERMARK
                and self.active < self.num_devices):
            self.active += 1
            self.scale_ups += 1
            self.series.record(now_ns, float(self.active))
        elif (utilization < LOW_WATERMARK
                and self.active > self.policy.min_devices):
            self.active -= 1
            self.scale_downs += 1
            self.series.record(now_ns, float(self.active))
        return self.active
