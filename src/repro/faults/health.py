"""Device health states and the monitor that tracks them.

Health is the *host's* view of each expander, driven by heartbeats and
launch outcomes rather than by the fault plan directly: a killed device
is not DOWN the instant the fault fires — it is DOWN when the host
*notices* (the next missed heartbeat, or a launch watchdog), which is
when recovery actually starts in a real fleet.

States:

``UP``        responding normally; the scheduler routes to it.
``DEGRADED``  responding but impaired (stall window, flapping link);
              still routable — work placed there just runs slower.
``DRAINING``  healthy but being quiesced (planned maintenance or
              autoscaler scale-down): no *new* work is routed, in-flight
              work finishes.
``DOWN``      failed and detected; never routed to, shards failed over.

Transitions are recorded as ``fault.health_transitions`` counter bumps
and, when tracing is enabled, ``fault.health`` instants on the device's
trace lane.
"""

from __future__ import annotations

from repro.sim.stats import StatsRegistry

UP = "up"
DEGRADED = "degraded"
DRAINING = "draining"
DOWN = "down"

#: All health states (doc / validation order: healthiest first).
HEALTH_STATES = (UP, DEGRADED, DRAINING, DOWN)


class HealthMonitor:
    """Per-device health state machine with counter-backed transitions."""

    def __init__(self, num_devices: int,
                 stats: StatsRegistry | None = None) -> None:
        self.states = [UP] * num_devices
        self.stats = stats
        #: (when_ns, device, old, new) transition log for reports/tests.
        self.transitions: list[tuple[float, int, str, str]] = []
        #: Per-(device, partition) states; absent keys are UP.  Populated
        #: only by partition-scoped faults.
        self.partition_states: dict[tuple[int, str], str] = {}
        #: (when_ns, device, partition, old, new) partition transitions.
        self.partition_transitions: list[
            tuple[float, int, str, str, str]] = []

    def state(self, device: int) -> str:
        return self.states[device]

    def partition_state(self, device: int, partition: str) -> str:
        """Health of one hardware partition on ``device``.

        A partition is only as healthy as its device: a DOWN device
        reports every partition DOWN.
        """
        if self.states[device] == DOWN:
            return DOWN
        return self.partition_states.get((device, partition), UP)

    def mark_partition(self, device: int, partition: str, new_state: str,
                       when_ns: float) -> bool:
        """Transition one partition; same DOWN-is-terminal rule as devices."""
        old = self.partition_states.get((device, partition), UP)
        if old == new_state or old == DOWN:
            return False
        self.partition_states[(device, partition)] = new_state
        self.partition_transitions.append(
            (when_ns, device, partition, old, new_state))
        if self.stats is not None:
            self.stats.add("fault.partition_transitions")
            self.stats.add(f"fault.partition_to_{new_state}")
        return True

    def is_routable(self, device: int) -> bool:
        return self.states[device] in (UP, DEGRADED)

    @property
    def routable_devices(self) -> list[int]:
        return [d for d, s in enumerate(self.states) if s in (UP, DEGRADED)]

    @property
    def down_devices(self) -> list[int]:
        return [d for d, s in enumerate(self.states) if s == DOWN]

    def mark(self, device: int, new_state: str, when_ns: float) -> bool:
        """Transition ``device`` to ``new_state``; returns True on change.

        DOWN is terminal: a dead device never recovers within a run (a
        replacement would be a *new* device in a longer-horizon model).
        """
        old = self.states[device]
        if old == new_state or old == DOWN:
            return False
        self.states[device] = new_state
        self.transitions.append((when_ns, device, old, new_state))
        if self.stats is not None:
            self.stats.add("fault.health_transitions")
            self.stats.add(f"fault.health_to_{new_state}")
        return True

    def render(self) -> str:
        parts = [f"dev{d}:{s}" for d, s in enumerate(self.states)]
        parts.extend(
            f"dev{d}.{name}:{s}"
            for (d, name), s in sorted(self.partition_states.items())
        )
        return " ".join(parts)
