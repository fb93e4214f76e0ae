"""Dynamic batching: coalesce compatible requests into one cluster launch.

How a tenant's requests may share a launch is one value, the workload's
``fuse`` mode (:mod:`repro.serve.tenant`), and every method here takes
it; the rule that grows a queue-head run under each mode is written once
(:func:`_fusable`).

``"slices"`` — the M2NDP kernels the slice-sweep tiers run (VectorAdd,
OLAP column scans) compute every derived address as ``argument_base +
f(x2)`` with ``x2`` relative to the launch's pool base, so two requests
over *adjacent* working-set slices are exactly equivalent to one launch
spanning both slices whose arguments point at the first slice — merged
launches are byte-identical to dispatching the requests one by one.  The
batcher exploits that under a classic **max-batch / max-wait** policy:

* up to ``max_batch`` queue-head requests whose slice ranges chain
  contiguously (or duplicate a slice already in the run — idempotent
  re-computation) fuse into a single logical launch;
* a lone head request may be *held* up to ``max_wait_ns`` after arrival
  waiting for batchmates, but never longer, and never when the stream has
  no arrivals left to wait for.

Beyond amortizing the per-launch overheads (M2func fan-out, host
dispatch), merging collapses many distinct per-slice launch shapes into a
few wide ones, so the cross-launch trace cache
(:mod:`repro.exec.trace_cache`) traces a fraction of the shapes it would
unbatched (``tests/serve/test_serving_engine.py::TestBatchingEquivalence``
asserts that and the throughput gain).

``"scatter"`` — point-lookup workloads (KVStore GETs — one µthread
walking one bucket chain, every request a different pool region and key)
can never merge by slice contiguity.  Up to ``max_batch`` queue-head
requests with the head's ``batch_key`` fuse into one wide launch over a
staging ring of per-request descriptors (see
:mod:`repro.serve.tenant`), one µthread per request.  Scatter batches
never hold the queue head — they take whatever has accumulated, so an
idle system still dispatches single requests at the lowest possible
latency and a loaded one amortizes the launch machinery across the
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from repro.errors import ConfigError
from repro.serve.qos import Request, RequestQueue


@dataclass(frozen=True)
class BatchPolicy:
    """Max-batch / max-wait coalescing policy (``max_batch=1`` disables)."""

    max_batch: int = 8
    max_wait_ns: float = 2000.0

    def __post_init__(self) -> None:
        batch, wait = self.max_batch, self.max_wait_ns
        if isinstance(batch, bool) or not isinstance(batch, int) \
                or batch < 1:
            raise ConfigError(f"max_batch argument must be an integer "
                              f">= 1, got {batch!r}")
        if isinstance(wait, bool) or not isinstance(wait, Real) \
                or not 0 <= wait < math.inf:
            raise ConfigError(f"max_wait_ns argument must be a finite "
                              f"number >= 0, got {wait!r}")


@dataclass
class Batch:
    """One dispatchable unit: requests covering slices [slice_lo, slice_hi).

    ``scatter`` marks a fused run of two or more independent point
    requests (the slice range is then merely the covering interval of the
    members' identity slices, not a contiguous merged run).
    """

    tenant: str
    requests: list[Request]
    slice_lo: int
    slice_hi: int
    scatter: bool = False

    @property
    def size(self) -> int:
        return len(self.requests)


def _fusable(head: list[Request], fuse: str) -> int:
    """Length of the longest prefix of ``head`` that fuses under ``fuse``.

    ``"slices"`` runs chain contiguously or duplicate a slice already
    covered; ``"scatter"`` runs share the head's ``batch_key`` (different
    keys are different kernels).  Either way the run covers exactly
    ``[min slice_lo, max slice_hi)`` of its members.
    """
    count = 1
    if fuse == "scatter":
        key = head[0].batch_key
        for request in head[1:]:
            if request.batch_key != key:
                break
            count += 1
        return count
    lo, hi = head[0].slice_lo, head[0].slice_hi
    for request in head[1:]:
        if request.slice_lo == hi:                          # extends the run
            hi = request.slice_hi
        elif not (lo <= request.slice_lo and request.slice_hi <= hi):
            break                                           # not a duplicate
        count += 1
    return count


class DynamicBatcher:
    """Forms batches from a tenant's queue head (see module docstring).

    ``fuse`` is the tenant workload's fusion mode
    (:attr:`repro.serve.tenant.TenantWorkload.fuse`).
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy

    def preview(self, queue: RequestQueue, tenant: str,
                fuse: str) -> list[Request]:
        """The fusable head run that :meth:`take` would dispatch now."""
        head = queue.head_run(tenant, self.policy.max_batch)
        return head[:_fusable(head, fuse)] if head else []

    def should_hold(self, queue: RequestQueue, tenant: str, fuse: str,
                    now_ns: float, more_arrivals: bool) -> float | None:
        """Hold the tenant's head for batchmates?  Returns the flush time.

        ``None`` means dispatch now: batching disabled, the run is already
        full, the head has aged ``max_wait_ns``, or the stream has no
        future arrivals that could ever join the batch.  Only ``"slices"``
        runs hold — scatter batches fuse whatever has already queued.
        """
        if not (fuse == "slices" and self.policy.max_batch > 1
                and self.policy.max_wait_ns and more_arrivals):
            return None
        run = self.preview(queue, tenant, fuse)
        if not run or len(run) >= self.policy.max_batch:
            return None
        flush_at = run[0].arrival_ns + self.policy.max_wait_ns
        return flush_at if flush_at > now_ns else None

    def take(self, queue: RequestQueue, tenant: str, fuse: str) -> Batch:
        """Remove and return the head batch for ``tenant``: what
        :meth:`preview` shows, in one extraction from the queue."""
        if not queue.depth(tenant):
            raise ConfigError(f"no queued requests for tenant {tenant!r}")
        taken = queue.take_run(tenant, self.policy.max_batch,
                               lambda head: _fusable(head, fuse))
        return Batch(tenant=tenant, requests=taken,
                     slice_lo=min(r.slice_lo for r in taken),
                     slice_hi=max(r.slice_hi for r in taken),
                     scatter=fuse == "scatter" and len(taken) > 1)
