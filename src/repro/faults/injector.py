"""The fault injector: arms a plan onto a live cluster and runs recovery.

One :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a :class:`~repro.cluster.runtime.ClusterRuntime`: every event becomes
a simulator callback, so faults fire in simulated time interleaved with
the workload deterministically.  The injector also *is* the recovery
path — it owns the cluster's :class:`~repro.faults.health.HealthMonitor`
and, on detecting a device failure:

1. marks the device DOWN and tells the :class:`LaunchScheduler` to stop
   routing to it;
2. fails every in-flight sub-launch on the device with a typed
   :class:`~repro.errors.LaunchFailed` (their completions were already
   being suppressed from the moment the device died — a dead expander
   does not answer);
3. re-replicates: replicated placements fail over reads immediately
   (any survivor holds the bytes); interleaved/blocked shards are
   re-materialized onto the next surviving device from the shared
   functional store, with the copy charged over the switch's host port
   (``recovery.recopy_bytes``).

A partition-scoped kill runs the same steps inside one partition: the
device stays routable, only the partition's in-flight work fails, and
its pinned allocations fail over to a spare partition.

Detection is heartbeat-quantized: a device killed at *t* is noticed at
the next heartbeat boundary after *t* (``DEFAULT_HEARTBEAT_NS`` granularity),
which is when all of the above runs.  Everything is observable as
``fault.*`` / ``recovery.*`` counters, flight-recorder rows and, under
``REPRO_TRACE=1``, trace instants and recovery spans, named by the
fault's :data:`~repro.faults.plan.LIFECYCLE` row.

Arming a zero-fault plan is a strict behavioral no-op: no simulator
events are scheduled and every runtime hook short-circuits, so results
and ``runtime_ns`` are byte-identical to a run without the module.
"""

from __future__ import annotations

import weakref

from repro.errors import ConfigError, LaunchFailed
from repro.faults.health import DEGRADED, DOWN, UP, HealthMonitor
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import tracer as obs_tracer

#: Heartbeat interval: how stale the host's view of a device may
#: be before a failure is noticed (detection latency ceiling).
DEFAULT_HEARTBEAT_NS = 5_000.0


class FaultInjector:
    """Binds a fault plan to a cluster runtime (see module docstring)."""

    def __init__(self, runtime, plan: FaultPlan) -> None:
        plan.validate_against(runtime.num_devices)
        for event in plan.events:
            if event.partition is not None:
                runtime.partitions.share(event.partition)   # validates it
        # weak: the runtime holds its injector (``runtime.faults``), so
        # a dropped runtime is freed by reference counting
        self._runtime = weakref.ref(runtime)
        self.plan = plan
        self.stats = runtime.stats
        self.health = HealthMonitor(runtime.num_devices, stats=self.stats)
        self.epoch_ns = runtime.sim.now
        # Every fault table is keyed by its scope, (device, partition):
        # partition None is the whole device.
        #: Scopes that have physically died (completions lost), keyed
        #: before the host *detects* the death at a heartbeat boundary.
        self._killed: set[tuple[int, str | None]] = set()
        self._detected: set[tuple[int, str | None]] = set()
        #: Stall-window end per scope (issue into the scope is held).
        self._stall_until: dict[tuple[int, str | None], float] = {}
        #: End of the last open degradation window (stall or link flap)
        #: per scope: the scope is UP again when *that* one closes.
        self._degraded_until: dict[tuple[int, str | None], float] = {}
        #: Poisoned address ranges: (base, size, partition-or-None).
        self._poison: list[tuple[int, int, str | None]] = []
        #: In-flight sub-launches per device: id(sub_handle) ->
        #: (handle, partition) so a detected failure can fail them typed
        #: — and a partition-scoped failure only the ones in its blast
        #: radius.
        self._live: dict[int, dict[int, tuple[object, str]]] = {
            d: {} for d in range(runtime.num_devices)
        }
        self._armed = False

    @property
    def runtime(self):
        return self._runtime()

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every plan event on the runtime's simulator."""
        if self._armed:
            raise ConfigError("a FaultInjector arms once")
        self._armed = True
        sim = self.runtime.sim
        for event in self.plan.events:
            when = self.epoch_ns + event.at_ns
            handler = getattr(self, f"_on_{event.kind}")
            sim.schedule_at(when, (lambda e=event, h=handler: h(e)))
        return self

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _emit(self, kind: str, device: int, **detail) -> None:
        """One stage of a fault's life: a trace instant on the device's
        lane and a row in the always-on flight recorder, if armed."""
        now = self.runtime.sim.now
        tracer = obs_tracer.tracer_of(self.runtime.sim)
        if tracer is not None:
            tracer.instant(kind, now, pid=1 + device, device=device, **detail)
        monitoring = self.runtime.monitoring
        if monitoring is not None:
            monitoring.record(kind, now, device=device, **detail)

    def _inject(self, event: FaultEvent, **detail) -> None:
        """Count and emit a firing fault under its lifecycle row."""
        lifecycle = event.lifecycle
        self.stats.add(lifecycle.counter)
        self._emit(lifecycle.inject, event.device,
                   **{**_scope(event.partition), **detail})

    def _on_device_fail(self, event: FaultEvent) -> None:
        now = self.runtime.sim.now
        # the host notices at the next heartbeat boundary after the death
        beats = int((now - self.epoch_ns) // DEFAULT_HEARTBEAT_NS) + 1
        detect_at = self.epoch_ns + beats * DEFAULT_HEARTBEAT_NS
        # blast radius of a partition-scoped kill: one partition's units
        # stop answering; the rest of the device (other partitions'
        # private L2/DRAM models) never sees the fault
        self._killed.add((event.device, event.partition))
        self._inject(event)
        self.runtime.sim.schedule_at(detect_at,
                                     lambda: self._detect(event))

    def _degrade(self, event: FaultEvent) -> None:
        """Open a degradation window: DEGRADED now, UP again at its end
        unless a longer stall/flap window of the scope is still open."""
        device, partition = event.device, event.partition
        key = (device, partition)
        until = self.runtime.sim.now + event.duration_ns
        self._degraded_until[key] = max(self._degraded_until.get(key, 0.0),
                                        until)
        self.health.mark(device, DEGRADED, self.runtime.sim.now, partition)
        up_kind, = event.lifecycle.recovery

        def recover() -> None:
            # a scope killed inside the window stays DOWN: no recovery row
            if (self._degraded_until[key] <= until and self.health.mark(
                    device, UP, self.runtime.sim.now, partition)):
                self._emit(up_kind, device, **_scope(partition))

        self.runtime.sim.schedule_at(until, recover)

    def _on_device_stall(self, event: FaultEvent) -> None:
        key = (event.device, event.partition)
        self._stall_until[key] = max(self._stall_until.get(key, 0.0),
                                     self.runtime.sim.now + event.duration_ns)
        self._inject(event, duration_ns=event.duration_ns)
        self._degrade(event)

    def _on_link_flap(self, event: FaultEvent) -> None:
        until = self.runtime.sim.now + event.duration_ns
        self.runtime.switch.start_flap(event.device, until)
        self.runtime.devices[event.device].link.start_flap(until)
        self._inject(event, duration_ns=event.duration_ns)
        self._degrade(event)

    def _on_poison(self, event: FaultEvent) -> None:
        self._poison.append((event.base, event.size, event.partition))
        # poison rows name their scope even when it is the whole device
        self._inject(event, base=event.base, size=event.size,
                     partition=event.partition)

    # ------------------------------------------------------------------
    # detection & recovery
    # ------------------------------------------------------------------

    def _detect(self, event: FaultEvent) -> None:
        """Heartbeat detection of a dead scope (device or partition):
        mark it DOWN, fail the in-flight sub-launches inside its blast
        radius, recover what it held.

        A dead partition's device stays routable and only launches bound
        to the partition fail; surviving partitions' private timing
        models were never touched, so their results are byte-identical
        to a fault-free run by construction.
        """
        device, partition = event.device, event.partition
        if (device, partition) in self._detected:
            return
        self._detected.add((device, partition))
        now = self.runtime.sim.now
        self.stats.add("fault.detections")
        self.health.mark(device, DOWN, now, partition)
        if partition is None:
            self.runtime.scheduler.set_routable(device, False)
            where = f"device {device}"
        else:
            self.stats.add("fault.partition_detections")
            where = f"partition {partition!r} on device {device}"
        self._emit(event.lifecycle.detect, device, **_scope(partition))
        live = self._live[device]
        stranded = [(key, handle) for key, (handle, part) in live.items()
                    if partition in (None, part)]
        for key, handle in stranded:
            del live[key]
            self.runtime.scheduler.note_complete(device)
            self.stats.add("recovery.failed_launches")
            handle._fail(now, LaunchFailed(
                f"{where} failed with the launch in flight",
                device=device, reason=f"{event.scope}_failure",
            ))
        if partition is None:
            self._recover_shards(event, now)
        else:
            self._recover_pins(event)
        if self.runtime.monitoring is not None:
            self.runtime.monitoring.fault_detected(device, now,
                                                   partition=partition)

    def _recover_shards(self, event: FaultEvent, now: float) -> None:
        """Fail over / re-materialize every allocation a dead device owned."""
        device = event.device
        failover, remap = event.lifecycle.recovery
        survivor = self._next_survivor(device)
        tracer = obs_tracer.tracer_of(self.runtime.sim)
        for shard in self.runtime.allocator.maps:
            if shard.placement == "replicated":
                # any survivor already holds the bytes: immediate failover
                self.stats.add("recovery.failovers")
                self._emit(failover, device, survivor=survivor)
                continue
            moved = shard.fail_over(device, survivor)
            if not moved:
                continue
            # re-materialize from the shared functional store: the copy
            # crosses the switch into the survivor's port
            done = self.runtime.switch.host_to_device(now, survivor, moved)
            self.stats.add("recovery.remapped_shards")
            self.stats.add("recovery.recopy_bytes", moved)
            self._emit(remap, device, survivor=survivor, bytes=moved,
                       done_ns=done)
            if tracer is not None:
                tracer.record("recovery.recopy", now, done,
                              pid=1 + survivor, device=survivor,
                              bytes=moved, failed_device=device)

    def _recover_pins(self, event: FaultEvent) -> None:
        """Fail allocations pinned to a dead partition over to spare
        capacity.  The pin is uniform across devices, so the move is
        cluster-wide: future launches avoid the dead partition everywhere."""
        partition = event.partition
        spare = self.runtime.partitions.spare_for(partition)
        if spare is None:
            return
        remap_kind, = event.lifecycle.recovery
        for shard in self.runtime.allocator.maps:
            if (shard.active_partition == partition
                    and shard.move_partition(spare.name)):
                self.stats.add("recovery.partition_failovers")
                self._emit(remap_kind, event.device, partition=partition,
                           survivor=spare.name)

    def _next_survivor(self, failed: int) -> int:
        n = self.runtime.num_devices
        for step in range(1, n):
            candidate = (failed + step) % n
            if self.health.is_routable(candidate):
                return candidate
        raise ConfigError("no surviving device to fail over to")

    # ------------------------------------------------------------------
    # runtime hooks (every one a cheap no-op under a zero-fault plan)
    # ------------------------------------------------------------------

    def note_sub_issued(self, device: int, handle, sub_handle,
                        partition: str) -> None:
        """Track an in-flight sub-launch so a kill can fail it typed —
        and a partition-scoped kill only the ones in its blast radius."""
        self._live[device][id(sub_handle)] = (handle, partition)

    def note_sub_completion(self, device: int, sub_handle) -> bool:
        """Returns True when the completion is *lost* (the device — or
        the partition the sub-launch ran in — died before the host could
        observe it); the handle then stays pending until :meth:`_detect`
        fails it."""
        entry = self._live[device].get(id(sub_handle))
        if ((device, None) in self._killed
                or entry is not None and (device, entry[1]) in self._killed):
            self.stats.add("fault.lost_completions")
            return True
        self._live[device].pop(id(sub_handle), None)
        return False

    def delay_issue(self, device: int, ready_ns: float,
                    partition: str) -> float:
        """Hold sub-launch issue while the device — or the target
        partition — is in a stall window."""
        until = max(self._stall_until.get((device, None), 0.0),
                    self._stall_until.get((device, partition), 0.0))
        if ready_ns < until:
            self.stats.add("fault.stall_delays")
            return until
        return ready_ns

    def poison_hit(self, lo: int, hi: int,
                   partition: str) -> tuple[int, int] | None:
        """First poisoned range intersecting [lo, hi), or None.

        ``partition`` is the partition the launch would run in;
        partition-scoped poison only hits launches in that partition,
        unscoped poison hits everything.
        """
        for base, size, scope in self._poison:
            if scope is not None and scope != partition:
                continue
            if lo < base + size and base < hi:
                return (base, size)
        return None

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic summary for manifests / reports."""
        snap = {
            "health": [self.health.state(device)
                       for device in range(self.runtime.num_devices)],
            "events": len(self.plan.events),
            "counters": {
                key: value for key, value in sorted(
                    self.stats.counters("fault.").items()
                )
            },
        }
        partitions = self.health.partitions()
        if partitions:
            snap["partition_health"] = partitions
        return snap


def _scope(partition: str | None) -> dict:
    """Detail fields naming a fault's scope (none for a whole device)."""
    return {} if partition is None else {"partition": partition}
