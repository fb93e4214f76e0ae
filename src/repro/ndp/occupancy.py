"""µthread slot and register-file allocation.

The two physical resources that bound concurrency on a sub-core are its 16
µthread slots and its share of the unit's 48 KB register file.  Because a
µthread only claims the registers its kernel declared (§III-D), memory-bound
kernels with few registers can keep all 16 slots busy, while register-hungry
kernels are limited by RF bytes — both limits are enforced here.

``spawn_granularity`` implements the Fig 12a "w/o fine-grained" ablation:
the default (1) releases and refills slots per-µthread; a granularity of 16
mimics GPU threadblock-style allocation where a sub-core's slots are only
refilled once *all* of them drain (inter-warp divergence waste, §III-D A2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LaunchError
from repro.sim.stats import IntervalSampler, StepSeries


@dataclass
class SlotAllocation:
    subcore_index: int
    slot_index: int
    rf_bytes: int


class SubcoreOccupancy:
    """Slot + register file accounting for one sub-core."""

    def __init__(self, num_slots: int, rf_capacity_bytes: int,
                 spawn_granularity: int = 1) -> None:
        if spawn_granularity < 1 or spawn_granularity > num_slots:
            raise LaunchError(
                f"spawn granularity {spawn_granularity} outside [1, {num_slots}]"
            )
        self.num_slots = num_slots
        self.rf_capacity_bytes = rf_capacity_bytes
        self.spawn_granularity = spawn_granularity
        self._free_slots = list(range(num_slots))[::-1]
        self._rf_used = 0
        self._active = 0
        # coarse mode: slots freed by finished µthreads are quarantined until
        # the whole group drains
        self._quarantined: list[int] = []

    @property
    def active(self) -> int:
        return self._active

    def can_allocate(self, rf_bytes: int) -> bool:
        return bool(self._free_slots) and self._rf_used + rf_bytes <= self.rf_capacity_bytes

    def allocate(self, rf_bytes: int) -> int:
        """Claim one slot; returns its index."""
        if not self.can_allocate(rf_bytes):
            raise LaunchError("sub-core has no free slot / register space")
        slot = self._free_slots.pop()
        self._rf_used += rf_bytes
        self._active += 1
        return slot

    def release(self, slot: int, rf_bytes: int) -> None:
        self._rf_used -= rf_bytes
        self._active -= 1
        if self._rf_used < 0 or self._active < 0:
            raise LaunchError("occupancy release underflow")
        if self.spawn_granularity == 1:
            self._free_slots.append(slot)
            return
        # coarse-grained: hold the slot until the whole group finishes
        self._quarantined.append(slot)
        if self._active == 0:
            self._free_slots.extend(self._quarantined)
            self._quarantined.clear()


class UnitOccupancy:
    """Occupancy across the sub-cores of one NDP unit, with Fig 6a sampling.

    :attr:`sampler` integrates the active ratio over time (Fig 6a's
    mean); the step series behind Fig 6a's plot is kept only while an
    :class:`OccupancySeries` is attached.
    """

    def __init__(self, num_subcores: int, slots_per_subcore: int,
                 rf_bytes_per_subcore: int, spawn_granularity: int = 1) -> None:
        self.subcores = [
            SubcoreOccupancy(slots_per_subcore, rf_bytes_per_subcore,
                             spawn_granularity)
            for _ in range(num_subcores)
        ]
        self.total_slots = num_subcores * slots_per_subcore
        self.sampler = IntervalSampler()
        self._rr_cursor = 0

    @property
    def active(self) -> int:
        return sum(sc.active for sc in self.subcores)

    def active_ratio(self) -> float:
        return self.active / self.total_slots

    def sample(self, now_ns: float) -> None:
        self.sampler.record(now_ns, self.active_ratio())

    def try_allocate(self, rf_bytes: int) -> SlotAllocation | None:
        """Round-robin a free slot across sub-cores; None when full."""
        n = len(self.subcores)
        for step in range(n):
            idx = (self._rr_cursor + step) % n
            subcore = self.subcores[idx]
            if subcore.can_allocate(rf_bytes):
                slot = subcore.allocate(rf_bytes)
                self._rr_cursor = (idx + 1) % n
                return SlotAllocation(subcore_index=idx, slot_index=slot,
                                      rf_bytes=rf_bytes)
        return None

    def release(self, allocation: SlotAllocation) -> None:
        self.subcores[allocation.subcore_index].release(
            allocation.slot_index, allocation.rf_bytes
        )


class OccupancySeries:
    """The per-unit active-ratio step series of some units, kept while
    attached.

    Built before the run it reads (the way a ``Monitoring`` stack is
    attached to a runtime): it attaches a :class:`StepSeries` to each
    unit's sampler, so from then on every point recorded on those units
    is kept, 16 B a point, until :meth:`detach`.  Fig 6a plots it, and a
    traced serving run's utilization windows read it.
    """

    def __init__(self, units) -> None:
        self.units = list(units)
        self.series: list[StepSeries] = [
            unit.occupancy.sampler.attach_series() for unit in self.units]

    def detach(self) -> None:
        """Stop keeping points (the series read so far stay readable)."""
        for unit in self.units:
            unit.occupancy.sampler.series = None

    def ratio_series(self, start_ns: float, end_ns: float,
                     steps: int) -> list[tuple[float, float]]:
        """Fig 6a's series: the units' mean active ratio at ``steps``
        uniform instants."""
        per_unit = [series.series(start_ns, end_ns, steps)
                    for series in self.series]
        out: list[tuple[float, float]] = []
        for i in range(steps):
            t = per_unit[0][i][0]
            out.append((t, sum(series[i][1] for series in per_unit)
                        / len(per_unit)))
        return out

    def window_mean(self, start_ns: float, end_ns: float) -> float:
        """The units' mean of their time-weighted active ratio over
        ``[start, end]`` (0 without units)."""
        mean = 0.0
        for series in self.series:
            mean += series.time_weighted_mean(start_ns, end_ns)
        return mean / max(len(self.series), 1)
