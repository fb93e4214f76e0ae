"""Fault plans: deterministic scripts of what breaks, where, and when.

A :class:`FaultPlan` is an immutable schedule of :class:`FaultEvent`\\ s
in simulated time, scripted by hand ("kill device 2 at t=50 µs"), so a
fault campaign replays bit-for-bit like arrivals and tenant data do.

Event kinds, mirroring the failure modes CXL's RAS machinery exists for:

``device_fail``
    Whole-expander failure at ``at_ns``.  The device stops responding:
    in-flight sub-launch completions are lost, the next heartbeat marks
    it DOWN, and recovery re-routes / re-materializes its shards.
``device_stall``
    Transient slowdown for ``duration_ns``: the device is DEGRADED and
    sub-launch issue to it is held until the window ends (firmware
    hiccup, thermal throttle, patrol scrub).
``link_flap``
    The device's switch port loses link for ``duration_ns``; packets
    crossing the port in the window are retried and charged
    ``extra_ns`` each (CXL link CRC/retry, §RAS).
``poison``
    ``[base, base + size)`` is marked poisoned at ``at_ns``: launches
    whose pool region (or remote prefetch) touches the range fault with
    a typed :class:`~repro.errors.PoisonError`.

Every kind but ``link_flap`` can be scoped to one hardware partition
(``FaultEvent.partition``).  What a fault is called at each stage of its
life — injected, detected, alerted, recovered — is one :class:`Lifecycle`
row of :data:`LIFECYCLE` per (kind, scope); the injector, the health
view, the SLO monitor and the incident reporter all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import COUNT, NONNEGATIVE, ConfigError, check_fields, setting


@dataclass(frozen=True)
class Lifecycle:
    """What one (fault kind, scope) is called at each stage of its life."""

    #: Counter the injection bumps.
    counter: str
    #: Ring-record / trace-instant kind of the injection.
    inject: str
    #: Ring kind marking the host's detection (the injection itself for
    #: faults that manifest synchronously).
    detect: str
    #: Typed alert the SLO monitor raises for a ``detect`` record, and its
    #: severity (``page`` | ``ticket``).
    alert: str
    severity: str
    #: Ring kinds of the recovery actions (none: not recovered in a run).
    recovery: tuple[str, ...] = ()
    #: MTTR runs to the ``"first"`` or the ``"last"`` recovery record.
    mttr_to: str = "first"


#: A whole device's degradation window (stall or link flap).
_DEVICE_DEGRADED = dict(alert="device_degraded", severity="ticket",
                        recovery=("recovery.device_up",))
_POISON = Lifecycle("fault.poison_ranges", "fault.poison", "fault.poison",
                    "poison", "page")

#: (fault kind, scope) -> its lifecycle; scope is ``"device"`` or
#: ``"partition"`` (see :attr:`FaultEvent.scope`).
LIFECYCLE = {
    ("device_fail", "device"): Lifecycle(
        "fault.device_kills", "fault.kill", "fault.detect", "device_down",
        "page", ("recovery.failover", "recovery.remap"), mttr_to="last"),
    ("device_fail", "partition"): Lifecycle(
        "fault.partition_kills", "fault.partition_kill",
        "fault.partition_detect", "partition_down", "page",
        ("recovery.partition_remap",), mttr_to="last"),
    ("device_stall", "device"): Lifecycle(
        "fault.stall_windows", "fault.stall", "fault.stall",
        **_DEVICE_DEGRADED),
    ("device_stall", "partition"): Lifecycle(
        "fault.partition_stall_windows",
        "fault.partition_stall", "fault.partition_stall",
        "partition_degraded", "ticket", ("recovery.partition_up",)),
    ("link_flap", "device"): Lifecycle(
        "fault.link_flaps", "fault.link_flap", "fault.link_flap",
        **_DEVICE_DEGRADED),
    ("poison", "device"): _POISON,
    ("poison", "partition"): _POISON,
}

#: Valid fault-event kinds.
FAULT_KINDS = tuple(dict.fromkeys(kind for kind, _ in LIFECYCLE))

#: Default extra latency charged per packet retried through a flapping
#: link (a handful of CRC retries at link latency each).
DEFAULT_RETRY_NS = 500.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    kind: str
    at_ns: float = setting(NONNEGATIVE)
    device: int = setting(COUNT, 0)     # target expander / switch port
    duration_ns: float = setting(NONNEGATIVE, 0.0)  # stall / flap window
    base: int = setting(COUNT, 0)       # poison range start
    size: int = setting(COUNT, 0)       # poison range length (bytes)
    #: per-packet retry charge (flap)
    extra_ns: float = setting(NONNEGATIVE, DEFAULT_RETRY_NS)
    #: Hardware partition the fault is scoped to (``device_fail`` /
    #: ``device_stall`` / ``poison`` only): the blast radius shrinks from
    #: the whole expander to that partition — its units stop answering /
    #: stall / fault, the rest of the device keeps running untouched.
    #: ``None`` (default) keeps whole-device semantics.
    partition: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {list(FAULT_KINDS)}"
            )
        if (self.kind, self.scope) not in LIFECYCLE:
            raise ConfigError(
                f"{self.kind} cannot be {self.scope}-scoped: it hits a "
                f"resource every partition on the device shares"
            )
        check_fields(self)
        if self.kind in ("device_stall", "link_flap") and self.duration_ns <= 0:
            raise ConfigError(f"{self.kind} needs a positive duration_ns")
        if self.kind == "poison" and self.size <= 0:
            raise ConfigError("poison needs a positive size")

    @property
    def scope(self) -> str:
        """``"partition"`` when partition-scoped, else ``"device"``."""
        return "device" if self.partition is None else "partition"

    @property
    def lifecycle(self) -> Lifecycle:
        return LIFECYCLE[(self.kind, self.scope)]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered schedule of faults."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at_ns))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def none(cls) -> "FaultPlan":
        """The zero-fault plan: arming it must be a behavioral no-op."""
        return cls(())

    def of_kind(self, kind: str) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def validate_against(self, num_devices: int) -> "FaultPlan":
        """Check device indices fit the cluster; returns self for chaining."""
        for event in self.events:
            if event.kind != "poison" and event.device >= num_devices:
                raise ConfigError(
                    f"fault {event.kind} targets device {event.device} but "
                    f"the cluster has {num_devices}"
                )
        # Partition-scoped kills do not take the device down, so only
        # whole-device kills count toward the survivor requirement.
        kills = [e.device for e in self.of_kind("device_fail")
                 if e.partition is None]
        if len(set(kills)) != len(kills):
            raise ConfigError(f"duplicate device_fail targets: {kills}")
        if len(set(kills)) >= num_devices:
            raise ConfigError(
                "fault plan kills every device; at least one must survive"
            )
        part_kills = [(e.device, e.partition)
                      for e in self.of_kind("device_fail")
                      if e.partition is not None]
        if len(set(part_kills)) != len(part_kills):
            raise ConfigError(
                f"duplicate partition-scoped device_fail targets: "
                f"{part_kills}"
            )
        return self

