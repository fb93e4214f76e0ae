"""Discrete-event simulation core (engine, clocks, statistics)."""

from repro.sim.clock import Clock
from repro.sim.engine import BandwidthServer, IssueServer, Simulator
from repro.sim.stats import (
    Distribution,
    IntervalSampler,
    StatsRegistry,
    StepSeries,
    geometric_mean,
)

__all__ = [
    "BandwidthServer",
    "Clock",
    "Distribution",
    "IntervalSampler",
    "IssueServer",
    "Simulator",
    "StatsRegistry",
    "StepSeries",
    "geometric_mean",
]
