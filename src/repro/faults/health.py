"""Device and partition health states and the monitor that tracks them.

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

A scope is a whole device or one hardware partition of it.  Every
transition lands in :attr:`HealthMonitor.transitions` and bumps two
counters: ``fault.health_transitions`` and ``fault.health_to_<state>``
for a device, the same names under ``fault.partition_`` for a partition.
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
    """Per-scope health state machine with counter-backed transitions."""

    def __init__(self, num_devices: int,
                 stats: StatsRegistry | None = None) -> None:
        #: (device, partition) -> state; partition None is the whole
        #: device.  A partition key exists once a partition-scoped fault
        #: has touched it; absent keys are UP.
        self.states: dict[tuple[int, str | None], str] = {
            (device, None): UP for device in range(num_devices)}
        self.stats = stats
        #: (when_ns, device, partition, old, new) transition log.
        self.transitions: list[
            tuple[float, int, str | None, str, str]] = []

    def state(self, device: int, partition: str | None = None) -> str:
        """Health of ``device``, or of one partition on it.

        A partition is only as healthy as its device: a DOWN device
        reports every partition DOWN.
        """
        whole = self.states[(device, None)]
        if partition is None or whole == DOWN:
            return whole
        return self.states.get((device, partition), UP)

    def is_routable(self, device: int) -> bool:
        return self.states[(device, None)] in (UP, DEGRADED)

    def mark(self, device: int, new_state: str, when_ns: float,
             partition: str | None = None) -> bool:
        """Transition one scope to ``new_state``; returns True on change.

        DOWN is terminal: a dead device never recovers within a run (a
        replacement would be a *new* device in a longer-horizon model).
        """
        key = (device, partition)
        old = self.states.get(key, UP)
        if old == new_state or old == DOWN:
            return False
        self.states[key] = new_state
        self.transitions.append((when_ns, device, partition, old, new_state))
        if self.stats is not None:
            scope = "health_" if partition is None else "partition_"
            self.stats.add(f"fault.{scope}transitions")
            self.stats.add(f"fault.{scope}to_{new_state}")
        return True

    def partitions(self) -> dict[str, str]:
        """``"dev<d>.<partition>" -> state`` of every partition a fault
        has touched, in (device, partition) order."""
        return {f"dev{device}.{partition}": state
                for (device, partition), state in sorted(
                    (key, state) for key, state in self.states.items()
                    if key[1] is not None)}

    def render(self) -> str:
        parts = [f"dev{device}:{state}"
                 for (device, partition), state in self.states.items()
                 if partition is None]
        parts.extend(f"{scope}:{state}"
                     for scope, state in self.partitions().items())
        return " ".join(parts)
