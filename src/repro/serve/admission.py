"""Admission control: token-bucket rate limits and queue-depth shedding.

Every arrival passes through the tenant's :class:`AdmissionController`
before it may queue.  Two independent gates:

* **token bucket** — the tenant's contracted rate: ``rate_limit_rps``
  tokens/s refill up to a ``burst`` cap; an arrival with no token is shed
  (``rate_limit``).  A zero rate limit disables the gate.
* **queue depth** — when a tenant already has ``MAX_QUEUE_DEPTH``
  requests waiting, further arrivals are shed (``queue_full``) instead of
  growing an unbounded backlog whose tail latency is meaningless.  It is
  0, which disables the gate.

Both sheds are terminal and *accounted*: together with requests that
expire past their deadline before dispatch, every offered request ends in
exactly one of {served, shed_rate_limit, shed_queue_full, expired}, so
shed accounting always sums back to offered load (asserted in the serve
test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Admission verdicts (also the per-tenant stats counter suffixes).
ADMIT = "admitted"
SHED_RATE_LIMIT = "shed_rate_limit"
SHED_QUEUE_FULL = "shed_queue_full"

#: Waiting requests at which a tenant's next arrival is shed; 0: no cap.
MAX_QUEUE_DEPTH = 0


@dataclass
class TokenBucket:
    """Classic token bucket in simulated time (tokens refill at ``rate``)."""

    rate_per_ns: float            # tokens per simulated ns
    burst: float                  # bucket capacity (max tokens banked)
    tokens: float = 0.0
    last_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_ns <= 0 or self.burst < 1:
            raise ConfigError(
                "token bucket needs a positive rate and burst >= 1"
            )
        self.tokens = self.burst

    def try_take(self, now_ns: float) -> bool:
        elapsed = max(now_ns - self.last_ns, 0.0)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_ns)
        self.last_ns = now_ns
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant admission gates, configured from the tenant specs."""

    def __init__(self) -> None:
        self._buckets: dict[str, TokenBucket] = {}

    def configure(self, tenant: str, rate_limit_rps: float = 0.0,
                  burst: float = 32.0) -> None:
        """Rate-limit ``tenant``; a zero rate disables the gate.  The
        limits are a :class:`~repro.serve.tenant.TenantSpec`'s, checked
        there."""
        if rate_limit_rps > 0:
            self._buckets[tenant] = TokenBucket(
                rate_per_ns=rate_limit_rps * 1e-9, burst=burst
            )

    def admit(self, tenant: str, now_ns: float, queue_depth: int) -> str:
        """Verdict for one arrival: ADMIT or a shed reason.

        Queue depth is checked first — a full queue sheds without spending
        a token, so the tenant's contracted rate is not burned on requests
        that could never be served.
        """
        if MAX_QUEUE_DEPTH and queue_depth >= MAX_QUEUE_DEPTH:
            return SHED_QUEUE_FULL
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.try_take(now_ns):
            return SHED_RATE_LIMIT
        return ADMIT
