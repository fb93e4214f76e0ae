"""Trace exporters: Chrome trace-event JSON + structured run manifest.

``to_chrome_trace`` renders a :class:`~repro.obs.tracer.Tracer` into the
Chrome trace-event format (the JSON Perfetto / ``chrome://tracing``
load): one **pid per device** (pid 0 is the serving/cluster host, pid
``1+i`` is device ``i``), one **tid per stage lane** (a request's
lifecycle chain, a device's sub-launch slot), duration events as matched
``B``/``E`` pairs with non-decreasing ``ts``, and ``C`` counter events
for the utilization timelines.  Timestamps are *simulated* nanoseconds
scaled to the format's microseconds.

``run_manifest`` builds the reproducibility sidecar written next to
``BENCH_*.json``: config + seed, git revision, a deterministically
sorted counter snapshot
(:meth:`~repro.sim.stats.StatsRegistry.snapshot`) and per-name span
aggregates.  ``write_trace`` / ``write_manifest`` put both on disk.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

from repro.obs.tracer import HOST_PID, Span, Tracer

#: Manifest schema tag (bump on incompatible layout changes).
MANIFEST_SCHEMA = "repro-run-manifest-v2"


def _process_names(spans: list[Span]) -> dict[int, str]:
    names = {}
    for span in spans:
        if span.pid not in names:
            names[span.pid] = ("serving-host" if span.pid == HOST_PID
                               else f"device{span.pid - 1}")
    return names


def _event_tree(spans: list[Span]) -> list[tuple]:
    """DFS-ordered (ts, lane, seq, event) rows.

    Emitting each lane's events in depth-first order (B parent, children,
    E parent) guarantees the stack discipline Chrome requires even when a
    child shares its parent's boundary timestamp; the global sort is then
    by ``ts`` with the per-lane sequence as the tiebreaker, which cannot
    reorder a lane (per-lane DFS order is ts-monotone by construction).
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.start_ns, s.span_id))

    rows: list[tuple] = []
    seq = 0

    def visit(span: Span) -> None:
        nonlocal seq
        lane = (span.pid, span.tid)
        args = {k: v for k, v in span.args.items() if v is not None}
        if span.end_ns == span.start_ns and span.span_id not in children:
            rows.append((span.start_ns, lane, seq, {
                "ph": "i", "name": span.name, "pid": span.pid,
                "tid": span.tid, "ts": span.start_ns / 1e3, "s": "t",
                "args": args,
            }))
            seq += 1
            return
        rows.append((span.start_ns, lane, seq, {
            "ph": "B", "name": span.name, "pid": span.pid, "tid": span.tid,
            "ts": span.start_ns / 1e3, "args": args,
        }))
        seq += 1
        for child in children.get(span.span_id, ()):
            visit(child)
        rows.append((span.end_ns, lane, seq, {
            "ph": "E", "name": span.name, "pid": span.pid, "tid": span.tid,
            "ts": span.end_ns / 1e3,
        }))
        seq += 1

    for root in children.get(None, ()):
        visit(root)
    return rows


def to_chrome_trace(tracer: Tracer, counters=None) -> dict:
    """Chrome trace-event JSON object (``{"traceEvents": [...]}``).

    ``counters`` is an optional iterable of ``(name, pid, t_ns, value)``
    samples (the utilization timelines) rendered as ``C`` events.
    """
    spans = tracer.finalize()
    rows = _event_tree(spans)
    if counters:
        for name, pid, t_ns, value in counters:
            rows.append((float(t_ns), (pid, 0), -1, {
                "ph": "C", "name": name, "pid": pid, "tid": 0,
                "ts": float(t_ns) / 1e3, "args": {"value": value},
            }))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    events = []
    for pid, pname in sorted(_process_names(spans).items()):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "ts": 0,
                       "args": {"name": pname}})
    events.extend(row[3] for row in rows)
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_trace(tracer: Tracer, path: str, counters=None) -> str:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tracer, counters), fh)
    return path


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def git_revision() -> str | None:
    """The commit this package's checkout is at, or ``None`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _config_dict(config) -> dict | None:
    if config is None:
        return None
    if dataclasses.is_dataclass(config):
        return json.loads(json.dumps(dataclasses.asdict(config),
                                     default=repr))
    return {"repr": repr(config)}


def run_manifest(tracer: Tracer | None = None, stats=None, config=None,
                 seed: int | None = None, extra: dict | None = None,
                 partitions=None) -> dict:
    """Structured, stably ordered description of one run.

    ``stats`` accepts anything with a ``snapshot()`` (a
    :class:`~repro.sim.stats.StatsRegistry` or the cluster's aggregate
    view); keys are deterministically sorted so manifests diff cleanly.
    ``partitions`` takes the cluster's
    :class:`~repro.cluster.partitions.PartitionMap`; the key is absent
    when none is given.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "python": sys.version.split()[0],
        "git_rev": git_revision(),
        "seed": seed,
        "config": _config_dict(config),
        "counters": stats.snapshot() if stats is not None else {},
        "span_aggregates": tracer.aggregates() if tracer is not None else {},
    }
    if partitions:
        manifest["partitions"] = partitions.describe()
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str, **kwargs) -> str:
    with open(path, "w") as fh:
        json.dump(run_manifest(**kwargs), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
