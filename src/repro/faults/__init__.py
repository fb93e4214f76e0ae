"""Deterministic fault injection + failure recovery for the cluster tier.

See :mod:`repro.faults.plan` (what breaks, when), :mod:`repro.faults.health`
(the host's view of each device) and :mod:`repro.faults.injector` (arming a
plan onto a :class:`~repro.cluster.runtime.ClusterRuntime` and running the
recovery paths).
"""

from repro.faults.health import (
    DEGRADED,
    DOWN,
    HEALTH_STATES,
    UP,
    HealthMonitor,
)
from repro.faults.injector import DEFAULT_HEARTBEAT_NS, FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "DEFAULT_HEARTBEAT_NS",
    "DEGRADED",
    "DOWN",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HEALTH_STATES",
    "HealthMonitor",
    "UP",
]
