"""Flight recorder: a bounded ring buffer of lightweight event records.

Full span tracing (``REPRO_TRACE=1``) is too heavy to leave on in
production; the flight recorder is the always-on complement.  It keeps
the *last N* noteworthy events — serving launches, retries and
failures, per-device scheduler issue decisions, fault injections,
detections and recovery actions — in a fixed-size
:class:`collections.deque`, so memory stays bounded no matter how long
the run and the hot path costs one attribute check when monitoring is
off (``runtime.monitoring is None``) and one ``deque.append`` when it is
on.  No wall clock is ever read: records carry simulated timestamps
and a monotone sequence number, so the ring's contents are
byte-identical across identical runs.

The recorder is one of the three parts of
:class:`~repro.obs.monitor.Monitoring`; when an incident fires, its
:class:`~repro.obs.incidents.IncidentReporter` snapshots the ring into
the bundle — the "what happened just before" context a final report
cannot reconstruct.
"""

from __future__ import annotations

from collections import deque

#: Ring size: 256 holds the fault -> detect -> recover neighbourhood of
#: an incident on a small cluster without growing a long healthy run.
RECORDER_CAPACITY = 256


class EventRecord:
    """One ring entry.  Slotted: the recorder holds thousands of these."""

    __slots__ = ("seq", "t_ns", "kind", "device", "tenant", "detail")

    def __init__(self, seq: int, t_ns: float, kind: str,
                 device: int | None, tenant: str | None,
                 detail: dict) -> None:
        self.seq = seq
        self.t_ns = t_ns
        self.kind = kind
        self.device = device
        self.tenant = tenant
        self.detail = detail

    def to_dict(self) -> dict:
        row = {"seq": self.seq, "t_ns": self.t_ns, "kind": self.kind}
        if self.device is not None:
            row["device"] = self.device
        if self.tenant is not None:
            row["tenant"] = self.tenant
        if self.detail:
            row["detail"] = dict(self.detail)
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventRecord(seq={self.seq}, t_ns={self.t_ns}, "
                f"kind={self.kind!r}, device={self.device}, "
                f"tenant={self.tenant!r})")


class FlightRecorder:
    """Bounded ring of :class:`EventRecord` (oldest evicted first)."""

    def __init__(self) -> None:
        self.capacity = RECORDER_CAPACITY
        self._ring: deque[EventRecord] = deque(maxlen=RECORDER_CAPACITY)
        self._seq = 0
        #: Records evicted to make room (ring was full when they aged out).
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`record` call will get."""
        return self._seq

    def record(self, kind: str, t_ns: float, device: int | None = None,
               tenant: str | None = None, **detail) -> None:
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(EventRecord(self._seq, float(t_ns), kind, device,
                                tenant, detail))
        self._seq += 1

    def events(self, kinds: tuple[str, ...] | None = None,
               since_seq: int = 0) -> list[EventRecord]:
        """Ring contents in arrival order, optionally filtered."""
        return [record for record in self._ring
                if record.seq >= since_seq
                and (kinds is None or record.kind in kinds)]

    def snapshot(self) -> list[dict]:
        """JSON-ready copy of the ring, oldest first (deterministic)."""
        return [record.to_dict() for record in self._ring]
