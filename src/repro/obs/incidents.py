"""Incident reporting: ring-buffer snapshots that explain themselves.

When something goes wrong — a monitor :class:`~repro.obs.monitor.Alert`
fires, a launch fails terminally, or the fault injector detects a dead
device — the :class:`IncidentReporter` freezes the moment: it snapshots
the :class:`~repro.obs.recorder.FlightRecorder` ring and the cluster's
counter registry into a JSON *incident bundle* (``incident-<seq>.json``)
holding the trigger, the fault -> detect -> recover timeline
reconstructed from the ring, the per-tenant (and per-partition) blast
radius, and — when a :class:`~repro.faults.plan.FaultPlan` is armed — a
correlation table grading each planned fault with its detection latency
(MTTD) and recovery time (MTTR).  What counts as a fault's injection,
detection, alert and recovery is its
:data:`~repro.faults.plan.LIFECYCLE` row.  Chaos experiments therefore
self-grade: the bundle says which injected faults were caught, how fast,
and what they cost each tenant.

Bundles contain only simulated timestamps and deterministic counters —
no wall clock, no hostnames — so identical runs produce byte-identical
bundles.  A per-trigger-key cooldown (one heartbeat) collapses
the alert storm of a single fault into one bundle.

Render a bundle with ``python -m repro.obs.incidents <bundle.json>``
(exit 2 on malformed input); grade an alert stream in-process with
:func:`grade_against_plan`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import weakref

from repro.faults.plan import LIFECYCLE

#: Bundle schema tag (bump on breaking layout changes).
INCIDENT_SCHEMA = "repro-incident-v1"

#: Per-trigger-key refractory period: one fault-detection heartbeat,
#: so cascading symptoms of one fault share one bundle.
COOLDOWN_NS = 5_000.0

#: A symptom alert this long after a fault ends is still charged to it.
CORRELATION_WINDOW_NS = 50_000.0

#: Ring-event kinds that make up the incident timeline: every stage of
#: every fault's lifecycle, plus the symptoms it causes.
_TIMELINE_KINDS = frozenset(
    kind for lifecycle in LIFECYCLE.values()
    for kind in (lifecycle.inject, lifecycle.detect, *lifecycle.recovery)
) | {"fault.timeout", "serve.retry", "serve.failed", "alert"}

#: Symptom alerts: attributable to *any* recent fault, not one kind.
_SYMPTOM_ALERTS = ("burn_rate", "p99")


class IncidentReporter:
    """Builds (and optionally writes) incident bundles on triggers."""

    def __init__(self, runtime, recorder, monitor,
                 out_dir: str | None = None) -> None:
        # weak: the runtime holds the monitoring stack that holds the
        # reporter, so a dropped runtime is freed by reference counting
        self._runtime = weakref.ref(runtime)
        self.recorder = recorder
        self.monitor = monitor
        self.out_dir = out_dir
        self.bundles: list[dict] = []
        self.paths: list[str] = []
        self._seq = 0
        self._last_fire: dict[tuple, float] = {}

    @property
    def runtime(self):
        return self._runtime()

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------

    def on_alert(self, alert, now_ns: float) -> dict | None:
        key = ("alert", alert.kind, alert.tenant or "",
               -1 if alert.device is None else alert.device)
        return self._fire(key, {"source": "alert", **alert.to_dict()},
                          now_ns)

    def on_launch_failed(self, failure: Exception, now_ns: float,
                         tenant: str | None = None,
                         requests: int = 0) -> dict | None:
        key = ("launch_failed", type(failure).__name__, tenant or "")
        trigger = {"source": "launch_failed", "at_ns": now_ns,
                   "error": type(failure).__name__,
                   "message": str(failure)}
        if tenant is not None:
            trigger["tenant"] = tenant
        if requests:
            trigger["requests"] = requests
        return self._fire(key, trigger, now_ns)

    def on_fault_detected(self, device: int, now_ns: float,
                          partition: str | None = None) -> dict | None:
        key = ("fault_detected", device, partition or "")
        trigger = {"source": "fault_detected", "at_ns": now_ns,
                   "device": device}
        if partition is not None:
            trigger["partition"] = partition
        return self._fire(key, trigger, now_ns)

    def _fire(self, key: tuple, trigger: dict,
              now_ns: float) -> dict | None:
        last = self._last_fire.get(key)
        if last is not None and now_ns - last < COOLDOWN_NS:
            return None
        self._last_fire[key] = now_ns
        bundle = self._build(trigger, now_ns)
        self.bundles.append(bundle)
        if self.out_dir is not None:
            path = os.path.join(self.out_dir,
                                f"incident-{bundle['seq']:04d}.json")
            with open(path, "w") as fh:
                json.dump(bundle, fh, indent=2, sort_keys=True)
                fh.write("\n")
            self.paths.append(path)
        return bundle

    # ------------------------------------------------------------------
    # bundle assembly
    # ------------------------------------------------------------------

    def _build(self, trigger: dict, now_ns: float) -> dict:
        ring = self.recorder.snapshot()
        timeline = [row for row in ring if row["kind"] in _TIMELINE_KINDS]
        bundle = {
            "schema": INCIDENT_SCHEMA,
            "seq": self._seq,
            "at_ns": now_ns,
            "trigger": trigger,
            "timeline": timeline,
            "blast_radius": blast_radius(ring, by_tenant),
            "ring": ring,
            "ring_dropped": self.recorder.dropped,
            "counters": self.runtime.stats.snapshot(),
            "alerts": [alert.to_dict() for alert in self.monitor.alerts],
        }
        part_radius = blast_radius(ring, by_partition)
        if part_radius:
            # absent (not empty) when no event was partition-scoped
            bundle["partition_blast_radius"] = part_radius
        if self.runtime.faults is not None:
            bundle["correlation"] = correlate(self.runtime.faults, ring,
                                              self.monitor.alerts)
        self._seq += 1
        return bundle


def blast_radius(ring: list[dict], key) -> dict:
    """Counts of ring events by kind, grouped by ``key(row)``; rows it
    maps to None are not attributed to any group."""
    radius: dict[str, dict[str, int]] = {}
    for row in ring:
        group = key(row)
        if group is None:
            continue
        per = radius.setdefault(group, {})
        per[row["kind"]] = per.get(row["kind"], 0) + 1
    return {group: dict(sorted(per.items()))
            for group, per in sorted(radius.items())}


def by_tenant(row: dict) -> str | None:
    """The tenant a ring row is attributed to, if any."""
    return row.get("tenant")


def by_partition(row: dict) -> str | None:
    """``"dev<d>.<partition>"`` of a partition-attributed row — the
    containment story of a partition-scoped fault at a glance."""
    partition = row.get("detail", {}).get("partition")
    if partition is None or row.get("device") is None:
        return partition
    return f"dev{row['device']}.{partition}"


# ---------------------------------------------------------------------------
# plan correlation / self-grading
# ---------------------------------------------------------------------------

def _catches(alert, event, injected: float) -> bool:
    """Whether ``alert`` is the typed alert of ``event``'s lifecycle row,
    on its device, at or after its injection."""
    return (alert.kind == event.lifecycle.alert
            and alert.device == event.device and alert.at_ns >= injected)


def _rows(ring: list[dict], event, kinds, since: float) -> list[dict]:
    """Ring rows of ``kinds`` on ``event``'s device (and partition, when
    it is partition-scoped) at or after ``since``."""
    return [row for row in ring
            if row["kind"] in kinds and row.get("device") == event.device
            and (event.partition is None
                 or row.get("detail", {}).get("partition") == event.partition)
            and row["t_ns"] >= since]


def correlate(injector, ring: list[dict], alerts) -> list[dict]:
    """Per planned fault: when it was detected, alerted and recovered.

    ``mttd_ns`` is host detection latency (ring detection record minus
    injection — heartbeat-quantized for kills, 0 for faults the injector
    manifests synchronously); ``mtta_ns`` is the extra beat until the
    monitor alerted; ``mttr_ns`` spans detection to the first or last
    recovery record, as the fault's lifecycle row says (re-copy
    completion for sharded placements, 0 for pure fail-over, stall/flap
    window end for degradations).
    """
    rows = []
    for event in injector.plan.events:
        lifecycle = event.lifecycle
        injected = injector.epoch_ns + event.at_ns
        detected = next((row["t_ns"] for row in _rows(
            ring, event, (lifecycle.detect,), injected)), None)
        recovered = None
        if detected is not None:
            ends = [row.get("detail", {}).get("done_ns", row["t_ns"])
                    for row in _rows(ring, event, lifecycle.recovery,
                                     detected)]
            if ends:
                recovered = (ends[0] if lifecycle.mttr_to == "first"
                             else max(detected, *ends))
        alerted = next((alert.at_ns for alert in alerts
                        if _catches(alert, event, injected)), None)
        rows.append({
            "kind": event.kind,
            "device": event.device,
            **({"partition": event.partition}
               if event.partition is not None else {}),
            "injected_ns": injected,
            "detected_ns": detected,
            "mttd_ns": (detected - injected if detected is not None
                        else None),
            "alerted_ns": alerted,
            "mtta_ns": (alerted - detected
                        if alerted is not None and detected is not None
                        else None),
            "recovered_ns": recovered,
            "mttr_ns": (recovered - detected if recovered is not None
                        else None),
        })
    return rows


def grade_against_plan(injector, alerts) -> dict:
    """Alert precision/recall + MTTD against the armed fault schedule.

    Recall: fraction of planned faults caught by at least one typed
    alert of the matching kind and device.  Precision: fraction of all
    alerts attributable to a planned fault — typed alerts must match
    kind+device, symptom alerts (burn rate, p99) count as attributed
    when they land within ``CORRELATION_WINDOW_NS`` after any fault.
    Both are 1.0 vacuously when there is nothing to miss or no alerts
    to misfire.
    """
    events = list(injector.plan.events)
    epoch = injector.epoch_ns
    caught = 0
    mttd: list[float] = []
    mtta: list[float] = []
    for event in events:
        injected = epoch + event.at_ns
        first = next((alert for alert in alerts
                      if _catches(alert, event, injected)), None)
        if first is not None:
            caught += 1
            mttd.append(first.at_ns - injected)
            # Alert.value carries the detection record's timestamp for
            # fault-typed alerts; the alert lands one monitor beat later.
            if first.value:
                mtta.append(first.at_ns - first.value)
    matched = 0
    for alert in alerts:
        if alert.kind in _SYMPTOM_ALERTS:
            ok = any(
                epoch + e.at_ns <= alert.at_ns
                <= epoch + e.at_ns + max(e.duration_ns,
                                         0.0) + CORRELATION_WINDOW_NS
                for e in events
            )
        else:
            ok = any(_catches(alert, e, epoch + e.at_ns) for e in events)
        if ok:
            matched += 1
    return {
        "events": len(events),
        "caught": caught,
        "recall": caught / len(events) if events else 1.0,
        "alerts": len(alerts),
        "matched_alerts": matched,
        "precision": matched / len(alerts) if alerts else 1.0,
        "mean_mttd_ns": sum(mttd) / len(mttd) if mttd else 0.0,
        "max_mttd_ns": max(mttd) if mttd else 0.0,
        "max_mtta_ns": max(mtta) if mtta else 0.0,
    }


# ---------------------------------------------------------------------------
# rendering / CLI
# ---------------------------------------------------------------------------

def render_bundle(bundle: dict) -> str:
    """Human-readable incident summary (the on-call first look)."""
    trigger = bundle["trigger"]
    lines = [
        f"incident #{bundle['seq']} at {bundle['at_ns']:,.0f} ns "
        f"(schema {bundle['schema']})",
        f"trigger: {trigger['source']} "
        + " ".join(f"{k}={v}" for k, v in sorted(trigger.items())
                   if k != "source"),
    ]
    if bundle.get("timeline"):
        lines.append("")
        lines.append("timeline:")
        for row in bundle["timeline"]:
            where = []
            if "device" in row:
                where.append(f"device={row['device']}")
            if "tenant" in row:
                where.append(f"tenant={row['tenant']}")
            suffix = (" " + " ".join(where)) if where else ""
            lines.append(f"  {row['t_ns']:>12,.0f} ns  "
                         f"{row['kind']:<20}{suffix}")
    if bundle.get("correlation"):
        lines.append("")
        lines.append("fault correlation (vs armed plan):")
        for row in bundle["correlation"]:
            mttd = (f"{row['mttd_ns']:,.0f}" if row["mttd_ns"] is not None
                    else "undetected")
            mttr = (f"{row['mttr_ns']:,.0f}" if row["mttr_ns"] is not None
                    else "-")
            scope = (f" partition={row['partition']}"
                     if row.get("partition") else "")
            lines.append(
                f"  {row['kind']:<13} device={row['device']}{scope} "
                f"injected={row['injected_ns']:,.0f} ns "
                f"MTTD={mttd} ns MTTR={mttr} ns"
            )
    if bundle.get("blast_radius"):
        lines.append("")
        lines.append("blast radius:")
        for tenant, per in bundle["blast_radius"].items():
            detail = " ".join(f"{k}={v}" for k, v in per.items())
            lines.append(f"  {tenant}: {detail}")
    if bundle.get("partition_blast_radius"):
        lines.append("")
        lines.append("partition blast radius:")
        for part, per in bundle["partition_blast_radius"].items():
            detail = " ".join(f"{k}={v}" for k, v in per.items())
            lines.append(f"  {part}: {detail}")
    interesting = {k: v for k, v in bundle["counters"].items()
                   if k.startswith(("fault.", "recovery."))}
    if interesting:
        lines.append("")
        lines.append("fault/recovery counters:")
        for key, value in interesting.items():
            lines.append(f"  {key} = {value:,.0f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.incidents",
        description="Render an incident bundle written by the "
                    "IncidentReporter.",
    )
    parser.add_argument("bundle", help="incident-<seq>.json file")
    args = parser.parse_args(argv)
    try:
        with open(args.bundle) as fh:
            bundle = json.load(fh)
        if not isinstance(bundle, dict) \
                or bundle.get("schema") != INCIDENT_SCHEMA:
            raise ValueError(
                f"not an incident bundle (expected schema "
                f"{INCIDENT_SCHEMA!r})"
            )
        rendered = render_bundle(bundle)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(rendered)
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
