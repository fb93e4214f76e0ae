"""Serving-tier resilience policies: retries with backoff, hedging.

A :class:`RetryPolicy` is a tenant's budget for re-driving launches lost
to faults (device failure, watchdog timeout): up to ``max_retries``
re-queues, each delayed by exponential backoff plus deterministic jitter
drawn from the tenant's seeded RNG stream.  ``deadline_aware`` retries
never fire past a request's SLO deadline — a retry that cannot possibly
meet the SLO is a wasted launch, so the request fails fast instead.

Poison faults are never retried: the data itself is bad, and re-driving
the same launch would fault the same way (CXL poison persists until the
range is scrubbed).

Hedging lives on :class:`~repro.serve.tenant.TenantSpec` directly
(``hedge_delay_ns``): for replicated point reads, a duplicate launch is
issued if the primary has not completed within the delay, and the first
completion wins — the classic tail-latency insurance for replicated
data, safe here because GET result-slot writes are idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (COUNT, FLAG, NONNEGATIVE, Domain, check_fields,
                          setting)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-tenant retry budget (default: no retries)."""

    #: Additional attempts after the first (0 disables retries).
    max_retries: int = setting(COUNT, 0)
    #: Delay before the first retry; attempt ``k`` waits
    #: ``backoff_ns * backoff_factor**k`` (+ jitter).
    backoff_ns: float = setting(NONNEGATIVE, 1_000.0)
    backoff_factor: float = setting(Domain("a finite number >= 1", float,
                                           lambda x: x >= 1), 2.0)
    #: Uniform jitter in [0, jitter_ns) added per retry, drawn from the
    #: tenant's seeded stream — deterministic, but decorrelates tenants.
    jitter_ns: float = setting(NONNEGATIVE, 0.0)
    #: Never schedule a retry that would fire past the request's deadline.
    deadline_aware: bool = setting(FLAG, True)

    def __post_init__(self) -> None:
        check_fields(self)

    def delay_ns(self, attempt: int, rng) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = self.backoff_ns * self.backoff_factor ** attempt
        if self.jitter_ns > 0:
            delay += float(rng.uniform(0.0, self.jitter_ns))
        return delay
