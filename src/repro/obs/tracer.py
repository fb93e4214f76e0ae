"""Sim-time hierarchical span tracing for the whole stack.

One :class:`Tracer` per :class:`~repro.sim.engine.Simulator` (all devices
behind one switch share a simulator, so one trace stitches a serving
request across the cluster).  Spans carry *simulated* nanosecond
timestamps — the tracer never reads the wall clock — and form a tree:

* ``serve.request`` (root, one per admitted request) owns the
  ``serve.queue`` / ``serve.batch_wait`` / ``serve.inflight`` stages;
* ``serve.launch`` -> ``cluster.launch`` -> per-device
  ``cluster.sub_launch`` (with ``cxl.p2p`` / ``cxl.fanout`` charge
  spans) descend from the first request of the batch;
* the execution backends record ``exec.batched`` / ``exec.simt`` /
  ``exec.point`` / ``exec.interpreter`` launch spans (with
  ``mem.charge`` children for the bulk L2/DRAM window and trace-cache
  hit/miss instants).

Because completion happens in scheduled callbacks — not on a call stack —
the API is explicit begin/end with span ids rather than a context
manager: :meth:`Tracer.begin` returns an id, :meth:`Tracer.end` closes
it, and :meth:`Tracer.record` logs an already-bounded span.  A span's
parent is always passed explicitly.

Cross-device stitching: a cluster sub-launch only learns its device-side
kernel instance id when the M2func read resolves, *after* the backend
may have recorded the execution's span.  Both sides therefore meet on a
``(pid, instance_id)`` key — the cluster registers the link with
:meth:`Tracer.link_instance`, backends tag their spans with
``instance=...``, and :meth:`Tracer.finalize` resolves parents and
swim-lanes in one pass at export time.

Overhead discipline: tracing is **off by default** (``REPRO_TRACE=0``)
and "off" has exactly one representation: :func:`tracer_of` returns
``None``.  Instrumented code resolves ``tracer = tracer_of(sim)`` once
per run / launch and guards every span with ``if tracer is not None:`` —
a local load and branch, nothing else; nothing outside this module reads
``ENABLED``.

``REPRO_TRACE`` is the package's one environment variable, read once, at
import, by :func:`read_environment` — the only reader of ``os.environ``
in the package.  It can only turn tracing on, and tracing never changes
a simulated number.  Every other setting is an argument or a config
field, so the same read refuses any other ``REPRO_*`` variable: a stale
one fails loudly instead of being silently ignored.
"""

from __future__ import annotations

import os
from collections.abc import Mapping

from repro.errors import ConfigError

#: pid of the serving/cluster host process in exported traces; devices
#: are pid ``1 + device_index`` (``M2NDPDevice.trace_pid``).
HOST_PID = 0


def read_environment(environ: Mapping[str, str]) -> bool:
    """The ``REPRO_TRACE`` flag of ``environ`` (``'0'``, the default, or
    ``'1'``); any other ``REPRO_*`` name in it is a :class:`ConfigError`."""
    stray = sorted(name for name in environ
                   if name.startswith("REPRO_") and name != "REPRO_TRACE")
    if stray:
        raise ConfigError(
            f"{', '.join(stray)}: not read by this package; REPRO_TRACE is "
            f"its only environment variable and every other setting is an "
            f"argument (README \"Settings\")")
    raw = environ.get("REPRO_TRACE", "0")
    if raw not in ("0", "1"):
        raise ConfigError(f"REPRO_TRACE must be '0' or '1', got {raw!r} "
                          f"(from REPRO_TRACE environment variable)")
    return raw == "1"


#: Module-level enabled flag, read by :func:`tracer_of` only;
#: :func:`set_enabled` flips it at runtime (the ``--trace`` flag, the
#: tests' on/off passes).
ENABLED: bool = read_environment(os.environ)


def enabled() -> bool:
    return ENABLED


def set_enabled(on: bool) -> bool:
    """Flip tracing globally; returns the new state."""
    global ENABLED
    ENABLED = bool(on)
    return ENABLED


class Span:
    """One traced interval.  ``tid=None`` means "inherit the parent's
    swim-lane" (resolved by :meth:`Tracer.finalize`)."""

    __slots__ = ("span_id", "name", "start_ns", "end_ns", "parent_id",
                 "pid", "tid", "args", "instance_key")

    def __init__(self, span_id: int, name: str, start_ns: float,
                 parent_id: int | None, pid: int, tid: int | None,
                 args: dict, instance_key: tuple[int, int] | None) -> None:
        self.span_id = span_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns: float | None = None
        self.parent_id = parent_id
        self.pid = pid
        self.tid = tid
        self.args = args
        self.instance_key = instance_key

    @property
    def duration_ns(self) -> float:
        return (self.end_ns - self.start_ns) if self.end_ns is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.span_id}, {self.name!r}, "
                f"[{self.start_ns}, {self.end_ns}], parent={self.parent_id})")


class Tracer:
    """Span sink for one simulator (see module docstring for the model)."""

    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self._next_id = 1
        self._next_tid: dict[int, int] = {}
        #: (pid, instance_id) -> (parent span id, tid) registered by the
        #: cluster runtime once a sub-launch's instance id resolves.
        self._instance_links: dict[tuple[int, int], tuple[int, int]] = {}
        self._finalized = False

    # -- recording ------------------------------------------------------

    def begin(self, name: str, start_ns: float, parent: int | None = None,
              pid: int = HOST_PID, tid: int | None = None,
              instance: int | None = None, **args) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        span_id = self._next_id
        self._next_id += 1
        key = (pid, instance) if instance is not None else None
        self.spans[span_id] = Span(span_id, name, float(start_ns), parent,
                                   pid, tid, args, key)
        self._finalized = False
        return span_id

    def end(self, span_id: int | None, end_ns: float, **args) -> None:
        """Close an open span (no-op for ``None`` — unadmitted stages)."""
        if span_id is None:
            return
        span = self.spans[span_id]
        span.end_ns = float(end_ns)
        if args:
            span.args.update(args)

    def record(self, name: str, start_ns: float, end_ns: float,
               parent: int | None = None, pid: int = HOST_PID,
               tid: int | None = None, instance: int | None = None,
               **args) -> int:
        """Log an already-bounded span in one call."""
        span_id = self.begin(name, start_ns, parent, pid, tid,
                             instance=instance, **args)
        self.end(span_id, end_ns)
        return span_id

    def instant(self, name: str, at_ns: float, parent: int | None = None,
                pid: int = HOST_PID, tid: int | None = None, **args) -> int:
        """Zero-duration marker (cache hits, admission verdicts)."""
        return self.record(name, at_ns, at_ns, parent, pid, tid, **args)

    # -- swim-lanes and cross-device stitching --------------------------

    def alloc_tid(self, pid: int) -> int:
        """Next free swim-lane (Chrome ``tid``) for a process."""
        tid = self._next_tid.get(pid, 0)
        self._next_tid[pid] = tid + 1
        return tid

    def link_instance(self, pid: int, instance_id: int,
                      parent_span: int, tid: int) -> None:
        """Adopt device-side spans tagged ``instance=instance_id`` under
        ``parent_span`` on swim-lane ``tid`` (resolved at finalize)."""
        self._instance_links[(pid, instance_id)] = (parent_span, tid)

    # -- finalize --------------------------------------------------------

    def finalize(self) -> list[Span]:
        """Resolve instance-keyed parents and inherit swim-lanes.

        Idempotent; returns spans in creation order.  Open spans (a shed
        run cut short) are closed at their own start time so exporters
        never see ``end_ns=None``.
        """
        ordered = [self.spans[i] for i in sorted(self.spans)]
        if self._finalized:
            return ordered
        for span in ordered:
            if span.end_ns is None:
                span.end_ns = span.start_ns
            if span.parent_id is None and span.instance_key is not None:
                link = self._instance_links.get(span.instance_key)
                if link is not None:
                    span.parent_id, span.tid = link
        # lane inheritance walks parents (creation order guarantees a
        # parent is visited before its children for locally-parented
        # spans; instance-linked parents are already resolved above)
        for span in ordered:
            if span.tid is not None:
                continue
            parent = self.spans.get(span.parent_id) \
                if span.parent_id is not None else None
            if parent is not None and parent.pid == span.pid \
                    and parent.tid is not None:
                span.tid = parent.tid
            else:
                span.tid = self.alloc_tid(span.pid)
        self._finalized = True
        return ordered

    # -- views -----------------------------------------------------------

    def aggregates(self) -> dict[str, dict[str, float]]:
        """Per-name count / total / self-time rollup (for manifests)."""
        spans = self.finalize()
        child_total: dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_total[span.parent_id] = (
                    child_total.get(span.parent_id, 0.0) + span.duration_ns
                )
        out: dict[str, dict[str, float]] = {}
        for span in spans:
            agg = out.setdefault(
                span.name, {"count": 0, "total_ns": 0.0, "self_ns": 0.0})
            agg["count"] += 1
            agg["total_ns"] += span.duration_ns
            agg["self_ns"] += max(
                span.duration_ns - child_total.get(span.span_id, 0.0), 0.0)
        return {name: out[name] for name in sorted(out)}


def tracer_of(sim) -> Tracer | None:
    """The simulator's tracer (created on first use), or ``None`` while
    tracing is disabled — the one representation of "tracing off"."""
    if not ENABLED:
        return None
    tracer = getattr(sim, "_obs_tracer", None)
    if tracer is None:
        tracer = sim._obs_tracer = Tracer()
    return tracer
