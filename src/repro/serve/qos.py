"""QoS machinery: requests, per-tenant queues, and the dispatch scheduler.

The serving frontend classifies every request into a latency class —
``interactive`` (user-facing point lookups, scans behind a dashboard) or
``batch`` (bulk analytics, background vector jobs) — and dispatches from
per-tenant queues under one of two policies:

``fifo``
    Global arrival order, blind to tenants, weights, classes and
    deadlines.  The baseline every serving paper compares against.
``wfq``
    Start-time fair queueing (SFQ) across tenants: each tenant carries a
    virtual finish tag advanced by ``cost / weight`` per dispatched
    request, and the backlogged tenant with the smallest start tag is
    served next, so long-run service share converges to the weight ratio
    regardless of arrival patterns.  Interactive-class heads are served
    before batch-class heads, **except** that a batch request waiting
    longer than ``starvation_ns`` is promoted into the interactive band —
    strict priority would starve batch tenants under interactive
    overload, and the promotion bounds their wait instead.

Within one tenant the queue is ordered by (class, deadline, arrival):
deadline-aware EDF inside each class band, FIFO among equal deadlines.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import POSITIVE, ConfigError, check, check_fields, setting

#: Latency classes, in priority order.
QOS_CLASSES = ("interactive", "batch")

#: Valid serving scheduler policies, and the default one.
SERVE_SCHEDULERS = ("fifo", "wfq")
DEFAULT_SERVE_SCHEDULER = "wfq"

#: A batch-class request waiting this long is promoted to the interactive
#: band (starvation freedom under interactive overload).
DEFAULT_STARVATION_NS = 100_000.0


def validate_serve_scheduler(name: str) -> str:
    if name not in SERVE_SCHEDULERS:
        raise ConfigError(
            f"unknown serving scheduler {name!r} (from scheduler); "
            f"choose from {list(SERVE_SCHEDULERS)}"
        )
    return name


def validate_qos_class(name: str, source: str = "qos_class") -> str:
    if name not in QOS_CLASSES:
        raise ConfigError(
            f"unknown QoS class {name!r} (from {source}); "
            f"choose from {list(QOS_CLASSES)}"
        )
    return name


@dataclass
class Request:
    """One tenant request from arrival to completion."""

    tenant: str
    index: int                    # per-tenant request number (data identity)
    seq: int                      # global admission order (FIFO key)
    arrival_ns: float
    qos_class: str
    deadline_ns: float            # absolute; inf when the tenant has no SLO
    #: Working-set slice range [slice_lo, slice_hi) this request touches;
    #: contiguous ranges are what the dynamic batcher merges.
    slice_lo: int
    slice_hi: int
    #: Fusion group (workload-defined): requests with different keys must
    #: never share a scatter batch (e.g. KVStore GETs vs SETs, which run
    #: different kernels).
    batch_key: int = 0
    complete_ns: float | None = None
    #: Launches this request has been part of that failed (fault/timeout);
    #: compared against the tenant's retry budget.
    attempts: int = 0
    #: Trace span ids (``repro.obs``), populated only while tracing is
    #: enabled.  Safe to carry here: queue heaps key on ``sort_key``
    #: whose ``seq`` component is unique, so Requests never compare.
    trace_root: int | None = None
    trace_queue: int | None = None
    trace_hold: int | None = None
    trace_inflight: int | None = None

    @property
    def class_rank(self) -> int:
        return QOS_CLASSES.index(self.qos_class)

    @property
    def sort_key(self) -> tuple:
        return (self.class_rank, self.deadline_ns, self.seq)


class RequestQueue:
    """Admitted-but-undispatched requests, one EDF heap per tenant."""

    def __init__(self) -> None:
        self._heaps: dict[str, list[tuple]] = {}

    def push(self, request: Request) -> None:
        heap = self._heaps.setdefault(request.tenant, [])
        heapq.heappush(heap, (*request.sort_key, request))

    def depth(self, tenant: str) -> int:
        return len(self._heaps.get(tenant, ()))

    @property
    def total(self) -> int:
        return sum(len(h) for h in self._heaps.values())

    def tenants(self) -> list[str]:
        """Tenants with at least one queued request."""
        return [t for t, h in self._heaps.items() if h]

    def peek(self, tenant: str) -> Request:
        return self._heaps[tenant][0][-1]

    def pop(self, tenant: str) -> Request:
        return heapq.heappop(self._heaps[tenant])[-1]

    def head_run(self, tenant: str, limit: int) -> list[Request]:
        """The first ``limit`` requests in dispatch order (not removed)."""
        heap = self._heaps.get(tenant)
        if not heap:
            return []
        if limit == 1:
            return [heap[0][-1]]
        if limit >= len(heap):
            return [entry[-1] for entry in sorted(heap)]
        head = [heapq.heappop(heap) for _ in range(limit)]
        for entry in head:
            heapq.heappush(heap, entry)
        return [entry[-1] for entry in head]

    def take_run(self, tenant: str, limit: int, prefix) -> list[Request]:
        """Remove and return the first ``prefix(head)`` of the first ``limit``
        requests in dispatch order, in O(limit · log depth): the entries not
        taken go back (``seq`` makes keys unique, so what remains pops in
        the same order), and a ``limit`` covering the queue is a plain sort.
        """
        heap = self._heaps[tenant]
        if limit >= len(heap):
            head = sorted(heap)
            heap.clear()
        else:
            head = [heapq.heappop(heap) for _ in range(limit)]
        count = prefix([entry[-1] for entry in head])
        for entry in head[count:]:
            heapq.heappush(heap, entry)
        return [entry[-1] for entry in head[:count]]


@dataclass
class QoSScheduler:
    """Picks which tenant's queue to serve next (see module docstring)."""

    policy: str = DEFAULT_SERVE_SCHEDULER
    weights: dict[str, float] = field(default_factory=dict)
    starvation_ns: float = setting(POSITIVE, DEFAULT_STARVATION_NS)
    _finish: dict[str, float] = field(default_factory=dict)
    _vtime: float = 0.0

    def __post_init__(self) -> None:
        validate_serve_scheduler(self.policy)
        for tenant, weight in self.weights.items():
            check("QoSScheduler", f"weights[{tenant!r}]", weight, POSITIVE)
        check_fields(self)

    # ------------------------------------------------------------------

    def _band(self, request: Request, now_ns: float) -> int:
        """Effective class band: batch ages into the interactive band."""
        if request.class_rank == 0:
            return 0
        if now_ns - request.arrival_ns >= self.starvation_ns:
            return 0
        return request.class_rank

    def pick(self, heads: dict[str, Request], now_ns: float) -> str:
        """Choose among tenants' head-of-queue requests."""
        if not heads:
            raise ConfigError("scheduler asked to pick from no tenants")
        if self.policy == "fifo":
            return min(heads, key=lambda t: heads[t].seq)
        best_band = min(self._band(r, now_ns) for r in heads.values())
        candidates = [t for t, r in heads.items()
                      if self._band(r, now_ns) == best_band]
        return min(
            candidates,
            key=lambda t: (max(self._finish.get(t, 0.0), self._vtime),
                           heads[t].deadline_ns, t),
        )

    def charge(self, tenant: str, cost: float) -> None:
        """Account ``cost`` units of service against ``tenant``'s share."""
        if self.policy == "fifo":
            return
        weight = self.weights.get(tenant, 1.0)
        start = max(self._finish.get(tenant, 0.0), self._vtime)
        self._vtime = start
        self._finish[tenant] = start + cost / weight
