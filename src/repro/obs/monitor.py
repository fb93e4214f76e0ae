"""SLO monitor: multi-window burn-rate alerting over sim-time windows.

The Google-SRE alerting pattern, scaled to simulated time: every tenant
has the one objective (``ATTAINMENT_FLOOR``, plus ``P99_CEILING_NS``),
the floor implies an *error budget* (``1 - floor``), and the monitor
watches the rate at which the budget is being spent over two sliding
windows — a fast one that makes alerts prompt and a slow one that makes
them stick — firing only when **both** exceed ``BURN_THRESHOLD``.  A short
blip inside an otherwise healthy hour spends little budget and stays
quiet; a sustained failure trips both windows within one heartbeat of
the fast window filling.

Everything is driven from :meth:`~repro.sim.stats.StatsRegistry.
timeline` counter deltas and the per-tenant latency stores the serving
engine keeps — the monitor only *reads*, so enabling it
cannot change workload results, and it never touches the wall clock, so
the alert stream is byte-identical across identical runs.

The production 5-minute/1-hour windows of the SRE book map to
5 µs / 60 µs here (``FAST_WINDOW_NS`` / ``SLOW_WINDOW_NS``, the same
1:12 ratio) because the serving runs themselves span tens of
microseconds of simulated time.

Availability alerting rides the :class:`~repro.obs.recorder.
FlightRecorder`: every fault *detection* the injector records surfaces
on the next monitor beat as the typed alert its
:data:`~repro.faults.plan.LIFECYCLE` row names, so a kill alerts even
when retries keep the burn rate under threshold.

The monitor is one of three parts of :class:`Monitoring`, the one
object a serving engine, its cluster runtime and the fault injector hold
(``engine.monitoring`` / ``runtime.monitoring``; None when the engine
is built with ``monitoring=False``): a flight recorder, this
monitor reading it, and an incident reporter snapshotting both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faults.plan import LIFECYCLE
from repro.obs.recorder import FlightRecorder
from repro.sim.stats import Distribution, StatsRegistry

#: Sliding-window spans (simulated ns).  The SRE fast/slow pair at the
#: simulator's microsecond scale; ratio 1:12 like 5 min : 1 h.
FAST_WINDOW_NS = 5_000.0
SLOW_WINDOW_NS = 60_000.0

#: The promised fraction of requests served within SLO; its complement
#: is the error budget the burn rate is measured against.
ATTAINMENT_FLOOR = 0.9

#: Windowed p99 latency objective; infinite: attainment only, no p99
#: alert.
P99_CEILING_NS = math.inf

#: Alert when the budget burns at >= 2x the sustainable rate in both
#: windows.
BURN_THRESHOLD = 2.0

#: Default monitor evaluation cadence (matches the fault injector's
#: heartbeat, so an alert lands at most one beat after a detection).
DEFAULT_MONITOR_INTERVAL_NS = 5_000.0

#: Detection ring kind -> (alert kind, severity) for availability alerts.
_DETECTION_ALERTS = {lifecycle.detect: (lifecycle.alert, lifecycle.severity)
                     for lifecycle in LIFECYCLE.values()}


@dataclass(frozen=True)
class Alert:
    """One typed alert event, timestamped in simulated ns."""

    kind: str                     # burn_rate | p99 | device_down | ...
    at_ns: float
    severity: str                 # page | ticket
    tenant: str | None = None
    device: int | None = None
    fast_burn: float = 0.0
    slow_burn: float = 0.0
    value: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        row = {"kind": self.kind, "at_ns": self.at_ns,
               "severity": self.severity}
        if self.tenant is not None:
            row["tenant"] = self.tenant
        if self.device is not None:
            row["device"] = self.device
        if self.kind == "burn_rate":
            row["fast_burn"] = self.fast_burn
            row["slow_burn"] = self.slow_burn
        if self.value:
            row["value"] = self.value
        if self.detail:
            row["detail"] = self.detail
        return row


class _Window:
    """One closed evaluation window: counter deltas + new latency samples."""

    __slots__ = ("start_ns", "end_ns", "deltas", "samples")

    def __init__(self, start_ns: float, end_ns: float, deltas: dict,
                 samples: dict) -> None:
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.deltas = deltas
        self.samples = samples


class SLOMonitor:
    """Evaluates each tenant's objective on a sim-time heartbeat.

    Call :meth:`evaluate` at each beat; it closes a timeline window,
    slides the fast/slow horizons over the retained windows and returns
    the alerts that *newly fired* this beat (state transitions, not
    levels — an incident pages once, not every heartbeat it persists).
    The full history stays on :attr:`alerts` / :attr:`clears`.
    """

    def __init__(self, registry: StatsRegistry,
                 latencies: dict[str, Distribution],
                 recorder: FlightRecorder, *, start_ns: float = 0.0) -> None:
        self.registry = registry
        #: Each tenant's latency store, kept by whoever serves it (a
        #: serving engine's reports), not by the registry.
        self.latencies = latencies
        self.tenants = list(latencies)
        self.recorder = recorder
        self._timeline = registry.timeline("serve.", start_ns=start_ns)
        self._windows: list[_Window] = []
        #: Per-tenant watermark into the latency store, starting at what
        #: it already holds: like the counter timeline above, the monitor
        #: sees only what lands after it.
        self._lat_seen: dict[str, int] = {
            t: latencies[t].count for t in self.tenants}
        #: Recorder sequence watermark (fault events already alerted).
        self._rec_seen = 0
        #: (kind, tenant) -> active, for transition-edge alerting.
        self._active: dict[tuple[str, str], bool] = {}
        self._state: dict[str, tuple[float, float, bool]] = {}
        self.alerts: list[Alert] = []
        self.clears: list[tuple[str, str, float]] = []

    # ------------------------------------------------------------------

    def _horizon_deltas(self, tenant: str, horizon_ns: float,
                        now_ns: float) -> dict[str, float]:
        """Summed counter deltas for one tenant over the trailing horizon.

        The horizon slides at window granularity: a window overlapping
        the horizon start counts whole, so the effective span is at most
        one beat longer than nominal — the standard rollup compromise.
        """
        lo = now_ns - horizon_ns
        prefix = f"serve.{tenant}."
        total: dict[str, float] = {}
        for window in self._windows:
            if window.end_ns <= lo:
                continue
            for key, value in window.deltas.items():
                if key.startswith(prefix):
                    short = key[len(prefix):]
                    total[short] = total.get(short, 0.0) + value
        return total

    @staticmethod
    def _burn_of(deltas: dict[str, float], budget: float) -> float:
        """Budget-spend rate from terminal-outcome deltas.

        ``bad / total`` is the fraction of terminal outcomes that broke
        the SLO promise (violations, failures, expiries and sheds all
        count — they are all broken promises); dividing by the error
        budget normalizes so 1.0 means "spending exactly the sustainable
        rate".
        """
        served = deltas.get("served", 0.0)
        bad = (deltas.get("slo_violations", 0.0)
               + deltas.get("failed", 0.0)
               + deltas.get("expired", 0.0)
               + deltas.get("shed_rate_limit", 0.0)
               + deltas.get("shed_queue_full", 0.0))
        total = served + bad - deltas.get("slo_violations", 0.0)
        if total <= 0:
            return 0.0
        fraction = bad / total
        if budget <= 0:
            return math.inf if fraction > 0 else 0.0
        return fraction / budget

    def _horizon_samples(self, tenant: str, horizon_ns: float,
                         now_ns: float) -> list[float]:
        lo = now_ns - horizon_ns
        samples: list[float] = []
        for window in self._windows:
            if window.end_ns <= lo:
                continue
            samples.extend(window.samples.get(tenant, ()))
        return samples

    def _transition(self, kind: str, tenant: str, active: bool,
                    now_ns: float, fired: list[Alert],
                    make: "callable") -> None:
        key = (kind, tenant)
        was = self._active.get(key, False)
        if active and not was:
            alert = make()
            self.alerts.append(alert)
            fired.append(alert)
        elif was and not active:
            self.clears.append((kind, tenant, now_ns))
        self._active[key] = active

    # ------------------------------------------------------------------

    def evaluate(self, now_ns: float) -> list[Alert]:
        """Close a window at ``now_ns`` and return newly-fired alerts."""
        window = self._timeline.mark(now_ns)
        samples: dict[str, list[float]] = {}
        for tenant in self.tenants:
            stored = self.latencies[tenant].samples
            seen = self._lat_seen[tenant]
            if len(stored) > seen:
                samples[tenant] = stored[seen:]
                self._lat_seen[tenant] = len(stored)
        self._windows.append(_Window(window.start_ns, window.end_ns,
                                     window.deltas, samples))
        horizon_lo = now_ns - SLOW_WINDOW_NS
        while self._windows and self._windows[0].end_ns <= horizon_lo:
            self._windows.pop(0)

        fired: list[Alert] = []
        budget = 1.0 - ATTAINMENT_FLOOR
        for tenant in self.tenants:
            fast = self._burn_of(
                self._horizon_deltas(tenant, FAST_WINDOW_NS, now_ns), budget)
            slow = self._burn_of(
                self._horizon_deltas(tenant, SLOW_WINDOW_NS, now_ns), budget)
            active = fast >= BURN_THRESHOLD and slow >= BURN_THRESHOLD
            self._state[tenant] = (fast, slow, active)
            self._transition(
                "burn_rate", tenant, active, now_ns, fired,
                lambda t=tenant, f=fast, s=slow: Alert(
                    "burn_rate", now_ns, "page", tenant=t,
                    fast_burn=f, slow_burn=s,
                    detail=f"error budget burning at {f:.2f}x (fast) / "
                           f"{s:.2f}x (slow)"))
            if math.isfinite(P99_CEILING_NS):
                window_samples = self._horizon_samples(
                    tenant, FAST_WINDOW_NS, now_ns)
                p99 = (Distribution(window_samples).percentile(99.0)
                       if window_samples else 0.0)
                self._transition(
                    "p99", tenant, p99 > P99_CEILING_NS, now_ns, fired,
                    lambda t=tenant, v=p99: Alert(
                        "p99", now_ns, "ticket", tenant=t, value=v,
                        detail=f"windowed p99 {v:.0f} ns over ceiling "
                               f"{P99_CEILING_NS:.0f} ns"))

        for record in self.recorder.events(
                kinds=tuple(_DETECTION_ALERTS), since_seq=self._rec_seen):
            kind, severity = _DETECTION_ALERTS[record.kind]
            where = record.detail.get("partition")
            suffix = f" partition={where}" if where else ""
            alert = Alert(kind, now_ns, severity, device=record.device,
                          value=record.t_ns,
                          detail=f"{record.kind} at "
                                 f"{record.t_ns:.0f} ns{suffix}")
            self.alerts.append(alert)
            fired.append(alert)
        self._rec_seen = self.recorder.next_seq
        return fired


class Monitoring:
    """The monitoring stack, built, held and switched as one object.

    Owns a :class:`FlightRecorder`, an :class:`SLOMonitor` reading it and
    an :class:`IncidentReporter` snapshotting both, plus the hooks their
    callers use: :attr:`record` (the ring's bound ``record``, so a hot
    path pays one call), :meth:`beat`, :attr:`launch_failed` and
    :attr:`fault_detected`.  The monitor's first window starts at the
    runtime's current sim time.
    """

    def __init__(self, runtime, latencies: dict[str, Distribution],
                 incident_dir: str | None = None) -> None:
        # lazy: ``repro.obs`` imports this module, and importing the
        # renderer with the package would make ``python -m
        # repro.obs.incidents`` warn that it was already imported
        from repro.obs.incidents import IncidentReporter

        self.recorder = FlightRecorder()
        self.monitor = SLOMonitor(runtime.stats, latencies, self.recorder,
                                  start_ns=runtime.sim.now)
        self.reporter = IncidentReporter(runtime, self.recorder,
                                         self.monitor, out_dir=incident_dir)
        self.record = self.recorder.record
        self.launch_failed = self.reporter.on_launch_failed
        self.fault_detected = self.reporter.on_fault_detected

    def beat(self, now_ns: float) -> None:
        """Evaluate the objectives; each newly fired alert lands in the
        ring first, so the bundle the reporter then snapshots already
        shows it in the timeline."""
        for alert in self.monitor.evaluate(now_ns):
            self.record("alert", now_ns, device=alert.device,
                        tenant=alert.tenant, alert=alert.kind,
                        severity=alert.severity)
            self.reporter.on_alert(alert, now_ns)
