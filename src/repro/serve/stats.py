"""Serving statistics: per-tenant SLO accounting into the StatsRegistry.

Every terminal request outcome lands in exactly one per-tenant counter
(``serve.<tenant>.served`` / ``.shed_rate_limit`` / ``.shed_queue_full``
/ ``.expired``), and a :class:`~repro.sim.stats.Timeline` over the
``serve.`` prefix captures windowed throughput without hand-rolled
interval math.  A served latency is recorded in two places: the tenant's
registry distribution ``serve.<tenant>.latency_ns`` — the one per-tenant
store, which the ``SLOMonitor`` reads and of which
:attr:`TenantReport.latencies` is this run's window — and
:attr:`ServingStats.aggregate`, the cross-tenant stream in completion
order.  The final
:class:`ServingReport` renders the table serving papers print: p50/p95/
p99, SLO attainment, goodput, shed counts — per tenant and aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.serve.admission import SHED_QUEUE_FULL, SHED_RATE_LIMIT
from repro.serve.tenant import TenantSpec
from repro.sim.stats import Distribution, StatsRegistry, Timeline


class _Rates:
    """Rates derived from ``served`` / ``offered`` / ``slo_met`` /
    ``launches`` / ``span_ns`` — one tenant's or the whole run's."""

    @property
    def throughput_rps(self) -> float:
        return self.served / (self.span_ns * 1e-9) if self.span_ns > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Completions *within the SLO* per second of the span."""
        return self.slo_met / (self.span_ns * 1e-9) if self.span_ns > 0 else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests served within the SLO (sheds and
        expiries count against attainment — they are broken promises)."""
        return self.slo_met / self.offered if self.offered else 0.0

    @property
    def mean_batch(self) -> float:
        return self.served / self.launches if self.launches else 0.0


@dataclass
class TenantReport(_Rates):
    """End-of-run accounting for one tenant."""

    name: str
    kind: str
    qos_class: str
    weight: float
    slo_ns: float
    offered: int = 0
    shed_rate_limit: int = 0
    shed_queue_full: int = 0
    expired: int = 0
    slo_met: int = 0
    launches: int = 0
    #: Resilience outcomes: retries are *events* (a request may retry
    #: several times), ``failed`` is terminal (all attempts lost).
    retried: int = 0
    hedged: int = 0
    hedged_won: int = 0
    failed: int = 0
    completion_times: list[float] = field(default_factory=list)
    correct: bool = True
    first_arrival_ns: float = math.inf
    last_completion_ns: float = 0.0
    #: Where this tenant's latencies are kept: the registry's
    #: ``serve.<name>.latency_ns`` distribution once
    #: :meth:`ServingStats.start` binds it (a private one for a
    #: standalone report), and this run's window ``[_base, _end)`` of its
    #: samples — open-ended until a ``ServingStats`` counts into it, so a
    #: finished report stays put when a later engine on the same platform
    #: appends to the same distribution.
    _store: Distribution = field(default_factory=Distribution, repr=False,
                                 compare=False)
    _base: int = field(default=0, repr=False, compare=False)
    _end: float = field(default=math.inf, repr=False, compare=False)

    @property
    def served(self) -> int:
        return min(self._store.count, self._end) - self._base

    @property
    def latencies(self) -> Distribution:
        """This run's latencies in completion order: its window of the
        store — the store itself while the window spans it (the one
        engine of a platform), so nothing is copied."""
        lo, hi = self._base, self._base + self.served
        if (lo, hi) == (0, self._store.count):
            return self._store
        return Distribution(self._store.samples[lo:hi])

    @property
    def shed(self) -> int:
        return self.shed_rate_limit + self.shed_queue_full

    @property
    def admitted(self) -> int:
        return self.offered - self.shed

    @property
    def accounted(self) -> int:
        """Terminal outcomes: must equal ``offered`` after a drained run
        (every offered request is served, shed, expired or failed —
        exactly once)."""
        return self.served + self.shed + self.expired + self.failed

    @property
    def accounting_ok(self) -> bool:
        return self.accounted == self.offered

    @property
    def span_ns(self) -> float:
        return max(self.last_completion_ns - self.first_arrival_ns, 0.0)

    def latency_summary(self) -> tuple[float, float, float]:
        """(p50, p95, p99) from one vectorized percentile pass over the
        distribution's cached sort
        (:meth:`~repro.sim.stats.Distribution.percentiles`)."""
        if not self.served:
            # a tenant that served nothing (all shed, all failed, or
            # simply zero requests) reports zero latency, not a
            # ValueError out of an empty percentile
            return (0.0, 0.0, 0.0)
        return tuple(self.latencies.percentiles((50.0, 95.0, 99.0)))

    @property
    def p50_ns(self) -> float:
        return self.latency_summary()[0]

    @property
    def p95_ns(self) -> float:
        return self.latency_summary()[1]

    @property
    def p99_ns(self) -> float:
        return self.latency_summary()[2]


class ServingStats:
    """Streaming sink the engine writes while serving."""

    def __init__(self, registry: StatsRegistry,
                 tenants: list[TenantSpec]) -> None:
        self.registry = registry
        self.reports = {
            spec.name: TenantReport(
                name=spec.name, kind=spec.kind, qos_class=spec.qos_class,
                weight=spec.weight, slo_ns=spec.slo_ns,
            )
            for spec in tenants
        }
        self.aggregate = Distribution()
        #: Created by :meth:`start` once the run epoch is known.
        self.timeline: Timeline | None = None
        self.first_arrival_ns = math.inf
        self.last_completion_ns = 0.0

    # ------------------------------------------------------------------

    def start(self, epoch_ns: float) -> None:
        """Open the timeline at the run epoch: workload setup (kernel
        registration) advances the simulator before serving starts, and
        that dead time must not dilute the first window's rates."""
        self.timeline = self.registry.timeline("serve.", start_ns=epoch_ns)
        for name, report in self.reports.items():
            key = f"serve.{name}.latency_ns"
            self.registry.observe_many(key, ())       # create if absent
            report._store = self.registry.distribution(key)
            report._base = report._end = report._store.count

    def mark_window(self, now_ns: float) -> None:
        if self.timeline is None:
            raise ValueError("ServingStats.start() must open the timeline "
                             "before windows are marked")
        self.timeline.mark(now_ns)

    def _bump(self, tenant: str, what: str, amount: float = 1.0) -> None:
        self.registry.add(f"serve.{tenant}.{what}", amount)

    def offered(self, tenant: str, arrival_ns: float) -> None:
        report = self.reports[tenant]
        report.offered += 1
        report.first_arrival_ns = min(report.first_arrival_ns, arrival_ns)
        self.first_arrival_ns = min(self.first_arrival_ns, arrival_ns)
        self._bump(tenant, "offered")

    def shed(self, tenant: str, reason: str) -> None:
        report = self.reports[tenant]
        if reason == SHED_RATE_LIMIT:
            report.shed_rate_limit += 1
        elif reason == SHED_QUEUE_FULL:
            report.shed_queue_full += 1
        else:
            raise ValueError(f"unknown shed reason {reason!r}")
        self._bump(tenant, reason)

    def expired(self, tenant: str) -> None:
        self.reports[tenant].expired += 1
        self._bump(tenant, "expired")

    def launched(self, tenant: str, batch_size: int) -> None:
        self.reports[tenant].launches += 1
        self._bump(tenant, "launches")
        self._bump(tenant, "batched_requests", batch_size)

    def retried(self, tenant: str, count: int = 1) -> None:
        self.reports[tenant].retried += count
        self._bump(tenant, "retried", float(count))

    def hedged(self, tenant: str) -> None:
        self.reports[tenant].hedged += 1
        self._bump(tenant, "hedged")

    def hedged_won(self, tenant: str) -> None:
        self.reports[tenant].hedged_won += 1
        self._bump(tenant, "hedged_won")

    def failed(self, tenant: str, count: int = 1) -> None:
        """Terminal failure: every attempt for the request was lost."""
        self.reports[tenant].failed += count
        self._bump(tenant, "failed", float(count))

    def served_batch(self, tenant: str, latencies: list[float],
                     complete_ns_list: list[float],
                     within_slo: list[bool]) -> None:
        """Land a whole batch's completions, in list order.

        A latency is kept twice: in the tenant's registry distribution
        (which the report's ``latencies`` and the ``SLOMonitor`` both
        read) and in :attr:`aggregate`, the one cross-tenant stream in
        completion order.  Splitting a batch over several calls is
        equivalent to one call.
        """
        if not latencies:
            return
        report = self.reports[tenant]
        report._store.add_many(latencies)
        report._end = report._store.count
        report.completion_times.extend(complete_ns_list)
        peak = max(complete_ns_list)
        report.last_completion_ns = max(report.last_completion_ns, peak)
        self.last_completion_ns = max(self.last_completion_ns, peak)
        self.aggregate.add_many(latencies)
        self._bump(tenant, "served", float(len(latencies)))
        met = sum(1 for ok in within_slo if ok)
        report.slo_met += met
        violations = len(within_slo) - met
        if violations:
            self._bump(tenant, "slo_violations", float(violations))

@dataclass
class ServingReport(_Rates):
    """Whole-run summary across all tenants."""

    tenants: list[TenantReport]
    span_ns: float
    aggregate: Distribution
    timeline: Timeline
    active_device_series: list[tuple[float, float]]
    scale_ups: int = 0
    scale_downs: int = 0
    trace_cache_hits: float = 0.0
    trace_cache_misses: float = 0.0

    @property
    def served(self) -> int:
        return self.aggregate.count

    @property
    def offered(self) -> int:
        return sum(t.offered for t in self.tenants)

    @property
    def launches(self) -> int:
        return sum(t.launches for t in self.tenants)

    @property
    def correct(self) -> bool:
        return all(t.correct for t in self.tenants)

    @property
    def slo_met(self) -> int:
        return sum(t.slo_met for t in self.tenants)

    @property
    def trace_cache_hit_rate(self) -> float:
        total = self.trace_cache_hits + self.trace_cache_misses
        return self.trace_cache_hits / total if total else 0.0

    @property
    def p50_ns(self) -> float:
        return self.aggregate.percentile(50.0) if self.aggregate.count \
            else 0.0

    @property
    def p95_ns(self) -> float:
        return self.aggregate.p95 if self.aggregate.count else 0.0

    @property
    def p99_ns(self) -> float:
        return self.aggregate.p99 if self.aggregate.count else 0.0

    def tenant(self, name: str) -> TenantReport:
        for report in self.tenants:
            if report.name == name:
                return report
        raise KeyError(f"no tenant named {name!r}")

    def render(self) -> str:
        lines = [
            f"{'tenant':>10} | {'class':>11} | {'offered':>7} | "
            f"{'served':>6} | {'shed':>5} | {'exp':>4} | {'fail':>4} | "
            f"{'retry':>5} | {'p50 ns':>9} | "
            f"{'p99 ns':>10} | {'SLO':>6} | {'goodput':>10} | {'batch':>5}"
        ]
        for t in self.tenants:
            p50 = f"{t.p50_ns:>9.0f}" if t.served else f"{'-':>9}"
            p99 = f"{t.p99_ns:>10.0f}" if t.served else f"{'-':>10}"
            slo = (f"{t.slo_attainment:>5.0%}" if math.isfinite(t.slo_ns)
                   else f"{'-':>5}")
            lines.append(
                f"{t.name:>10} | {t.qos_class:>11} | {t.offered:>7} | "
                f"{t.served:>6} | {t.shed:>5} | {t.expired:>4} | "
                f"{t.failed:>4} | {t.retried:>5} | {p50} | "
                f"{p99} | {slo:>6} | {t.goodput_rps:>10,.0f} | "
                f"{t.mean_batch:>5.1f}"
            )
        lines.append(
            f"aggregate: {self.served}/{self.offered} served in "
            f"{self.span_ns:,.0f} ns ({self.throughput_rps:,.0f} rps, "
            f"goodput {self.goodput_rps:,.0f} rps), p99 {self.p99_ns:,.0f} ns, "
            f"{self.launches} launches (mean batch {self.mean_batch:.1f}), "
            f"trace cache {self.trace_cache_hits:.0f}H/"
            f"{self.trace_cache_misses:.0f}M"
        )
        if self.scale_ups or self.scale_downs:
            peak = max(v for _, v in self.active_device_series)
            lines.append(
                f"autoscaler: {self.scale_ups} up / {self.scale_downs} down, "
                f"peak {peak:.0f} active devices"
            )
        return "\n".join(lines)
