"""Dynamic batching: coalesce compatible requests into one cluster launch.

The M2NDP kernels the serving tiers run (VectorAdd, OLAP column scans)
compute every derived address as ``argument_base + f(x2)`` with ``x2``
relative to the launch's pool base, so two requests over *adjacent*
working-set slices are exactly equivalent to one launch spanning both
slices whose arguments point at the first slice — merged launches are
byte-identical to dispatching the requests one by one.  The batcher
exploits that under a classic **max-batch / max-wait** policy:

* up to ``max_batch`` queue-head requests whose slice ranges chain
  contiguously (or duplicate a slice already in the run — idempotent
  re-computation) fuse into a single logical launch;
* a lone head request may be *held* up to ``max_wait_ns`` after arrival
  waiting for batchmates, but never longer, and never when the stream has
  no arrivals left to wait for.

Beyond amortizing the per-launch overheads (M2func fan-out, host
dispatch), merging collapses many distinct per-slice launch shapes into a
few wide ones, which is precisely what the cross-launch trace cache
(:mod:`repro.exec.trace_cache`) wants: a tenant cycling through more
slices than the cache holds thrashes it unbatched, and hits on every
launch once batched (measured by the serving smoke point).

Point-lookup workloads (KVStore GETs — one µthread walking one bucket
chain, every request a different pool region and key) can never merge by
slice contiguity.  They batch through the **scatter** mode instead: up
to ``max_batch`` arbitrary queue-head requests fuse into one wide launch
over a staging ring of per-request descriptors (see
:meth:`repro.serve.tenant.TenantWorkload.plan`), one µthread per
request.  Scatter batches never hold the queue head — they take whatever
has accumulated, so an idle system still dispatches single requests at
the lowest possible latency and a loaded one amortizes the launch
machinery across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.knobs import KNOBS
from repro.serve.qos import Request, RequestQueue


@dataclass(frozen=True)
class BatchPolicy:
    """Max-batch / max-wait coalescing knobs (``max_batch=1`` disables)."""

    max_batch: int = KNOBS["REPRO_SERVE_MAX_BATCH"].default
    max_wait_ns: float = KNOBS["REPRO_SERVE_MAX_WAIT_NS"].default

    def __post_init__(self) -> None:
        KNOBS["REPRO_SERVE_MAX_BATCH"].accept(self.max_batch,
                                              "max_batch argument")
        KNOBS["REPRO_SERVE_MAX_WAIT_NS"].accept(self.max_wait_ns,
                                                "max_wait_ns argument")

    @property
    def enabled(self) -> bool:
        return self.max_batch > 1


@dataclass
class Batch:
    """One dispatchable unit: requests covering slices [slice_lo, slice_hi).

    ``scatter`` marks a gather-batch of independent point requests (the
    slice range is then merely the covering interval of the members'
    identity slices, not a contiguous merged run).
    """

    tenant: str
    requests: list[Request]
    slice_lo: int
    slice_hi: int
    scatter: bool = False

    @property
    def size(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Forms batches from a tenant's queue head (see module docstring)."""

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy

    def preview(self, queue: RequestQueue, tenant: str,
                batchable: bool, scatter: bool = False) -> list[Request]:
        """The mergeable head run that :meth:`take` would dispatch now."""
        if scatter and self.policy.enabled:
            head = queue.head_run(tenant, self.policy.max_batch)
            if not head:
                return []
            # op-homogeneous fusion: stop at the first request whose
            # batch_key differs from the head's (different kernel)
            run = []
            for request in head:
                if request.batch_key != head[0].batch_key:
                    break
                run.append(request)
            return run
        limit = self.policy.max_batch if batchable else 1
        head = queue.head_run(tenant, limit)
        if not head:
            return []
        run = [head[0]]
        lo, hi = head[0].slice_lo, head[0].slice_hi
        for request in head[1:]:
            if request.slice_lo == hi:                      # extends the run
                hi = request.slice_hi
            elif lo <= request.slice_lo and request.slice_hi <= hi:
                pass                                        # duplicate slice
            else:
                break
            run.append(request)
        return run

    def should_hold(self, queue: RequestQueue, tenant: str, batchable: bool,
                    now_ns: float, more_arrivals: bool,
                    scatter: bool = False) -> float | None:
        """Hold the tenant's head for batchmates?  Returns the flush time.

        ``None`` means dispatch now: batching disabled, the run is already
        full, the head has aged ``max_wait_ns``, or the stream has no
        future arrivals that could ever join the batch.  Scatter batches
        never hold — they fuse whatever has already queued.
        """
        if scatter:
            return None
        if not (self.policy.enabled and batchable and self.policy.max_wait_ns):
            return None
        if not more_arrivals:
            return None
        run = self.preview(queue, tenant, batchable)
        if not run or len(run) >= self.policy.max_batch:
            return None
        flush_at = run[0].arrival_ns + self.policy.max_wait_ns
        return flush_at if flush_at > now_ns else None

    def take(self, queue: RequestQueue, tenant: str,
             batchable: bool, scatter: bool = False) -> Batch:
        """Remove and return the head batch for ``tenant``."""
        run = self.preview(queue, tenant, batchable, scatter)
        if not run:
            raise ConfigError(f"no queued requests for tenant {tenant!r}")
        taken = queue.pop_run(tenant, len(run))
        scatter = scatter and self.policy.enabled and len(taken) > 1
        if not scatter:
            # A merged run must genuinely chain contiguously (or duplicate
            # covered slices): a covering [min, max) range over a run with
            # gaps would launch over slices no request asked for.
            lo, hi = taken[0].slice_lo, taken[0].slice_hi
            for request in taken[1:]:
                if request.slice_lo == hi:
                    hi = request.slice_hi
                elif lo <= request.slice_lo and request.slice_hi <= hi:
                    pass
                else:
                    raise ConfigError(
                        f"batch for tenant {tenant!r} is not contiguous: "
                        f"slice [{request.slice_lo}, {request.slice_hi}) "
                        f"does not extend or duplicate [{lo}, {hi})"
                    )
            return Batch(tenant=tenant, requests=taken,
                         slice_lo=lo, slice_hi=hi)
        return Batch(
            tenant=tenant,
            requests=taken,
            slice_lo=min(r.slice_lo for r in taken),
            slice_hi=max(r.slice_hi for r in taken),
            scatter=True,
        )
