"""Discrete-event simulation engine.

All timing models in the package share one global notion of time measured in
**nanoseconds** (floats).  The engine is a classic calendar queue built on
``heapq``: events are ``(time, sequence, callback)`` triples and execute in
nondecreasing time order, with the sequence number breaking ties FIFO so the
simulation is deterministic.

Two usage styles coexist:

* callback events (``schedule`` / ``run``) for open systems such as the
  KVStore client population or kernel launches arriving over time; and
* *virtual-time servers* (:class:`IssueServer`, :class:`BandwidthServer`)
  that model throughput-limited resources without per-cycle events.  A
  server hands out start times given an arrival time and charges occupancy,
  which is how sub-core issue slots, DRAM data buses and CXL link bandwidth
  are all modeled.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

import numpy as np

from repro.errors import SimulationError
from repro.sim.workspace import SHARED_INTS, Workspace


def virtual_queue_finish(arrivals: np.ndarray, costs: np.ndarray,
                         busy_until: float = 0.0) -> np.ndarray:
    """Vectorized FIFO queue: finish times of ordered arrivals at one server.

    Solves ``finish[i] = max(arrival[i], finish[i-1]) + cost[i]`` (with
    ``finish[-1] = busy_until``) without a Python loop: writing
    ``C[i] = sum(cost[:i+1])`` the recurrence unrolls to
    ``finish[i] = C[i] + max(busy_until, max_{j<=i}(arrival[j] - C[j-1]))``,
    which is one ``cumsum`` and one running max.  This is the bulk analogue
    of calling :meth:`BandwidthServer.transfer` once per element.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if arrivals.size == 0:
        return arrivals.copy()
    cum = np.cumsum(costs) if costs.ndim else np.arange(1, arrivals.size + 1) * costs
    slack = arrivals - (cum - costs)
    return cum + np.maximum(np.maximum.accumulate(slack), busy_until)


#: the working arrays :func:`virtual_queues_finish` and
#: :func:`segmented_queue_finish` share (a workspace's charges run one at a
#: time): what either returns is valid until the next call of either
_QUEUE_INTS, _QUEUE_FLOATS = SHARED_INTS[2], "queue.float"


def virtual_queues_finish(arrivals: np.ndarray, cost: float,
                          server: np.ndarray,
                          busy_until: np.ndarray,
                          workspace: Workspace | None = None) -> np.ndarray:
    """:func:`virtual_queue_finish` for many servers in one pass.

    Arrival ``i`` joins the FIFO of server ``server[i]`` (int64; array
    order is arrival order), every transfer costs ``cost``, and
    ``busy_until[s]`` is server ``s``'s state: read, and advanced in place
    for the servers the batch uses.  Element for element the float
    operations of one :func:`virtual_queue_finish` (equivalently one
    :meth:`BandwidthServer.charge_batch`) per server: a stable sort by
    server gives each arrival its rank in its queue, and the queues are
    the rows of one ``-inf``-padded ``[servers, longest queue]`` grid,
    written and read through one flat index, so every running max is one
    accumulate.  The working arrays, the returned finish times included,
    come from ``workspace`` (fresh ones without it).  The grid is kept there
    only while it is at most twice the batch: when most arrivals pick one
    server it is up to ``servers x n`` floats, made for that batch alone.
    """
    work = Workspace() if workspace is None else workspace
    n = arrivals.size
    servers = busy_until.size
    order, queue, at = work.take(_QUEUE_INTS, n, np.int64, rows=3)
    cum, value, finish = work.take(_QUEUE_FLOATS, n, rows=3)
    work.argsort(server, servers, order)
    server.take(order, out=queue, mode="clip")
    queued = np.bincount(queue, minlength=servers)
    first = np.cumsum(queued) - queued
    longest = int(queued.max())
    # an arrival's rank in its queue, then its place in the grid
    iota = work.iota(n)
    np.subtract(iota, first.take(queue, out=at, mode="clip"), out=at)
    cum[...] = np.add(at, 1, out=at)
    np.multiply(cum, cost, out=cum)
    (np.arange(servers) * longest - first).take(queue, out=at, mode="clip")
    np.add(at, iota, out=at)
    size = servers * longest
    slack = work.take("queue.grid", size) if size <= 2 * n \
        else np.empty(size)
    slack[...] = -np.inf
    arrivals.take(order, out=value, mode="clip")
    slack[at] = np.subtract(value, np.subtract(cum, cost, out=finish),
                            out=value)
    grid = slack.reshape(servers, longest)
    np.maximum.accumulate(grid, axis=1, out=grid)
    slack.take(at, out=value, mode="clip")
    busy_until.take(queue, out=finish, mode="clip")
    finish_sorted = np.add(cum, np.maximum(value, finish, out=value),
                           out=value)
    used = np.flatnonzero(queued)
    busy_until[used] = finish_sorted[(first + queued - 1)[used]]
    finish[order] = finish_sorted
    return finish


def segmented_queue_finish(arrivals_plus_service: np.ndarray,
                           chain_costs: np.ndarray,
                           segment_lengths: np.ndarray,
                           segment_init: np.ndarray,
                           workspace: Workspace | None = None) -> np.ndarray:
    """Max-plus queue recurrence solved independently per segment.

    The elements are the segments laid end to end: segment ``s`` is the
    next ``segment_lengths[s]`` (>= 1) elements, and its state before the
    first is ``segment_init[s]``.  Within a segment this solves

        done[i] = max(arrivals_plus_service[i],
                      done[i-1] + chain_costs[i]),   done[-1] = init[s]

    which models a pipelined resource (a DRAM bank, a channel bus) whose
    per-element completion depends on both its own arrival path and the
    previous element's completion; chain costs are durations (>= 0).  The
    running max is computed for all segments at once by offsetting each
    segment into its own disjoint value band before
    ``np.maximum.accumulate`` (segments are short-lived virtual time
    windows, so the offset costs no precision that matters at ns scale).
    The working arrays, the returned one included, come from ``workspace``
    (fresh ones without it).
    """
    n = arrivals_plus_service.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    work = Workspace() if workspace is None else workspace
    cum, local_cum, slack = work.take(_QUEUE_FLOATS, n, rows=3)
    chain_costs.cumsum(out=cum)
    starts = np.cumsum(segment_lengths) - segment_lengths
    # each element's segment number: a cumsum over the segment heads
    segment = work.take(_QUEUE_INTS, n, np.int64)
    segment[...] = 0
    segment[starts[1:]] = 1
    segment.cumsum(out=segment)
    # within-segment cumulative chain cost
    (cum[starts] - chain_costs[starts]).take(segment, out=local_cum,
                                             mode="clip")
    np.subtract(cum, local_cum, out=local_cum)
    np.subtract(arrivals_plus_service, local_cum, out=slack)
    # fold each segment's initial state into its first element
    slack[starts] = np.maximum(slack[starts], segment_init)
    span = float(slack.max() - slack.min()) + 1.0
    band = cum
    band[...] = segment
    np.multiply(band, span, out=band)
    np.add(slack, band, out=slack)
    np.maximum.accumulate(slack, out=slack)
    np.subtract(slack, band, out=slack)
    return np.add(local_cum, slack, out=slack)

# Events are plain (time, seq, callback) tuples: tuple comparison in the
# heap is much cheaper than a dataclass __lt__ on this hot path.


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: the working arrays of every vectorized L2/DRAM charge run in
        #: this simulation: one set per platform, freed with it
        self.workspace = Workspace()
        self._queue: list[tuple[float, int, Callable[[], Any]]] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to fire ``delay`` ns after the current time.

        Hot path: a nonnegative delay added to ``now`` can never land in
        the past, so the heap push is done directly with a single guard
        instead of re-validating through :meth:`schedule_at`.  Both guards
        are written ``not x >= bound`` so a NaN, which compares False
        either way and would break the heap order, is refused too.
        """
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule at delay {delay}: must be a number >= 0")
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at an absolute timestamp."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time}: must be a number >= the "
                f"current time {self.now}"
            )
        heapq.heappush(self._queue, (time, self._seq, callback))
        self._seq += 1

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers; returns the first.

        An event later scheduled with one of them
        (:meth:`schedule_reserved`) breaks a time tie as if it had been
        scheduled now: a stream of known times can then keep only its
        next event in the queue, each firing scheduling the one after,
        and still run in the order that scheduling all of them up front
        would give.
        """
        first = self._seq
        self._seq += count
        return first

    def schedule_reserved(self, time: float, seq: int,
                          callback: Callable[[], Any]) -> None:
        """:meth:`schedule_at` under a sequence number from
        :meth:`reserve` (through :meth:`schedule_at` itself, so whatever
        wraps it sees this event too)."""
        next_seq = self._seq
        self._seq = seq
        try:
            self.schedule_at(time, callback)
        finally:
            self._seq = next_seq

    def step(self) -> bool:
        """Execute the earliest event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _seq, callback = heapq.heappop(self._queue)
        self.now = time
        self.events_processed += 1
        callback()
        return True

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the next event is past ``until``.

        When ``until`` is given, time is advanced to exactly ``until`` after
        the last executed event so components can be sampled at that instant.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    break
                self.step()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False


class IssueServer:
    """Virtual-time model of a throughput-limited pipeline resource.

    A resource that accepts up to ``width`` operations per ``period`` ns is
    modeled by a running *virtual time*: each accepted operation advances it
    by ``period / width``.  An operation arriving at ``t`` starts at
    ``max(t, virtual_time)``.  This reproduces the long-run throughput limit
    and queueing delay of a ``width``-wide issue stage without simulating
    individual cycles.
    """

    def __init__(self, width: int, period_ns: float) -> None:
        if width <= 0 or period_ns <= 0:
            raise SimulationError("IssueServer needs positive width and period")
        self.width = width
        self.period_ns = period_ns
        self._cost = period_ns / width
        self._virtual_time = 0.0
        self.ops_issued = 0

    def issue(self, arrival_ns: float) -> float:
        """Accept one operation arriving at ``arrival_ns``; return start time."""
        start = arrival_ns if arrival_ns > self._virtual_time else self._virtual_time
        self._virtual_time = start + self._cost
        self.ops_issued += 1
        return start

    def service_batch(self, arrival_ns: float, count: int) -> float:
        """Charge ``count`` operations arriving together at ``arrival_ns``.

        Bulk analogue of ``count`` back-to-back :meth:`issue` calls (their
        virtual-time advance telescopes to one multiply); returns the time
        the last operation clears the resource.  The per-resource
        reference for :meth:`repro.ndp.subcore.IssueBank.charge`, which
        occupies a device's sub-cores with a whole launch this way.
        """
        if count <= 0:
            return max(arrival_ns, self._virtual_time)
        start = arrival_ns if arrival_ns > self._virtual_time else self._virtual_time
        self._virtual_time = start + count * self._cost
        self.ops_issued += count
        return self._virtual_time

    def next_free(self, arrival_ns: float) -> float:
        """Earliest start time for an op arriving at ``arrival_ns`` (no charge)."""
        return max(arrival_ns, self._virtual_time)

    @property
    def busy_until(self) -> float:
        return self._virtual_time


class BandwidthServer:
    """Virtual-time model of a bandwidth-limited channel (bytes per ns).

    Used for CXL link directions and DRAM data buses.  A transfer of ``size``
    bytes arriving at ``t`` starts once the channel drains previous traffic
    and occupies it for ``size / bw`` ns; the method returns the transfer's
    *finish* time.
    """

    def __init__(self, bytes_per_ns: float) -> None:
        if bytes_per_ns <= 0:
            raise SimulationError("BandwidthServer needs positive bandwidth")
        self.bytes_per_ns = bytes_per_ns
        self._busy_until = 0.0
        self.bytes_transferred = 0

    def transfer(self, arrival_ns: float, size_bytes: int) -> float:
        """Charge a transfer; returns the time its last byte leaves."""
        start = arrival_ns if arrival_ns > self._busy_until else self._busy_until
        finish = start + size_bytes / self.bytes_per_ns
        self._busy_until = finish
        self.bytes_transferred += size_bytes
        return finish

    def charge_batch(self, arrivals_ns: np.ndarray,
                     size_bytes) -> np.ndarray:
        """Charge an ordered batch of transfers; returns per-transfer finish.

        ``size_bytes`` may be a scalar (uniform transfers) or an array.
        Equivalent to calling :meth:`transfer` once per element, solved in
        one vectorized pass via :func:`virtual_queue_finish`.
        """
        arrivals_ns = np.asarray(arrivals_ns, dtype=np.float64)
        if arrivals_ns.size == 0:
            return arrivals_ns.copy()
        costs = np.asarray(size_bytes, dtype=np.float64) / self.bytes_per_ns
        finishes = virtual_queue_finish(arrivals_ns, costs, self._busy_until)
        self._busy_until = float(finishes[-1])
        self.bytes_transferred += int(np.sum(size_bytes)) if np.ndim(
            size_bytes) else int(size_bytes) * arrivals_ns.size
        return finishes

    def occupancy_end(self) -> float:
        return self._busy_until
