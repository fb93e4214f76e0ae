"""Smoke-bench wall-clock budget check for CI.

Compares a freshly produced ``BENCH_smoke.json`` against the committed
one and fails when any tracked wall-clock field regresses by more than
the budget factor (default 2x; override with the
``REPRO_BENCH_BUDGET_FACTOR`` environment variable, e.g. for slower CI
runners).  A small absolute slack (``ABS_SLACK_SECONDS``) is added on
top of the factor so sub-100 ms fields — where scheduler noise and cold
numpy imports dominate — don't flake on shared CI workers or across
machine generations; the committed baseline is measured on a developer
box, not the runner.  Simulated results (``runtime_ns``) are covered by
tests; this gate only protects the *wall-clock* trajectory, so a change
that silently puts a Python loop back on the charge path turns CI red
instead of slowly rotting every sweep.

Two *coverage* gates ride along: the fig06 (HISTO atomics/phases) and
kvstore (fine-grained divergent GETs) smoke points must report
``batched_fallbacks == 0`` — the SIMT engine owns those launch classes,
and a change that silently hands them back to the interpreter is a
~10-60x wall cliff the factor-based budget might only catch later.  A
*speedup floor* gate also rides along: ``kvstore_point.serving_speedup``
(scatter-batched serving vs the unbatched interpreter tier) must stay
above 5x — being a ratio of two walls on the same runner, it needs no
noise slack.  Finally, ``tracing_point.off_wall_seconds`` gets a *tight*
1.05x factor: tracing disabled (``REPRO_TRACE=0``, the default) must
cost nothing, so even a small regression on that field fails CI.

A wall-clock field missing from *either* file is a failure, not a skip:
a budget that silently stops comparing protects nothing.  A PR that adds
or renames a smoke point regenerates the committed baseline with it.

Usage::

    python benchmarks/check_budget.py committed.json fresh.json
"""

from __future__ import annotations

import json
import math
import os
import sys

#: Dotted paths of the wall-clock fields under budget.
TRACKED_FIELDS = (
    "fig10a_point.batched.wall_seconds",
    "fig06_point.batched.wall_seconds",
    "kvstore_point.batched.wall_seconds",
    "cluster_point.x1.wall_seconds",
    "cluster_point.x2.wall_seconds",
    "traffic_point.wall_seconds",
    "serving_point.unbatched.wall_seconds",
    "serving_point.batched.wall_seconds",
    "resilience_point.wall_seconds",
    "monitoring_point.off_wall_seconds",
    "monitoring_point.on_wall_seconds",
    "partition_point.isolation_wall_seconds",
    "partition_point.containment_wall_seconds",
)

#: Dotted paths that must be exactly zero in the fresh run: interpreter
#: fallbacks on launch classes the SIMT engine covers.
ZERO_FALLBACK_FIELDS = (
    "fig06_point.batched.batched_fallbacks",
    "kvstore_point.batched.batched_fallbacks",
)

#: Hard floors on speedup ratios in the fresh run, independent of the
#: committed baseline: the scatter-batched KVStore serving path must
#: stay >5x faster wall-clock than the unbatched interpreter tier — a
#: ratio, so runner speed cancels out and no slack factor applies.
SPEEDUP_FLOOR_FIELDS = {
    "kvstore_point.serving_speedup": 5.0,
}

#: Fields with their own *tight* budget factor instead of the default:
#: disabled tracing must be free, so the tracing-off serving wall only
#: gets 5% over the committed baseline (plus the same flat noise slack
#: every wall field gets) — if the ``obs_tracer.ENABLED`` fast path
#: grows real work, this turns red long before the 2x budget would.
TIGHT_FACTOR_FIELDS = {
    "tracing_point.off_wall_seconds": 1.05,
}

DEFAULT_FACTOR = 2.0

#: Flat allowance added to every budget: absorbs measurement noise on
#: fields that are now only tens of milliseconds.
ABS_SLACK_SECONDS = 0.5


def _dig(payload: dict, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _missing(field: str, base, now) -> str | None:
    """The failure for a wall field one of the two files lacks."""
    if base is not None and now is not None:
        return None
    where = " and ".join(name for name, value in
                         (("committed baseline", base), ("fresh run", now))
                         if value is None)
    return (f"{field}: missing from the {where} (regenerate the committed "
            f"BENCH_smoke.json with benchmarks/smoke.py)")


def check(committed: dict, fresh: dict, factor: float) -> list[str]:
    """Returns a list of human-readable budget violations."""
    failures = []
    for field in TRACKED_FIELDS:
        base = _dig(committed, field)
        now = _dig(fresh, field)
        missing = _missing(field, base, now)
        if missing:
            failures.append(missing)
        elif now > base * factor + ABS_SLACK_SECONDS:
            failures.append(
                f"{field}: {now:.3f}s vs committed {base:.3f}s "
                f"(> {factor:.1f}x + {ABS_SLACK_SECONDS:.1f}s budget)"
            )
    for field in ZERO_FALLBACK_FIELDS:
        now = _dig(fresh, field)
        if now is not None and now != 0:
            reasons = _dig(fresh, field.rsplit(".", 1)[0]
                           + ".fallback_reasons")
            failures.append(
                f"{field}: {now:.0f} interpreter fallbacks on a "
                f"SIMT-covered launch class (reasons: {reasons})"
            )
    for field, floor in SPEEDUP_FLOOR_FIELDS.items():
        now = _dig(fresh, field)
        if now is not None and now < floor:
            failures.append(
                f"{field}: {now:.2f}x below the {floor:.1f}x floor "
                f"(the small-launch serving path regressed)"
            )
    for field, tight in TIGHT_FACTOR_FIELDS.items():
        base = _dig(committed, field)
        now = _dig(fresh, field)
        missing = _missing(field, base, now)
        if missing:
            failures.append(missing)
        elif now > base * tight + ABS_SLACK_SECONDS:
            failures.append(
                f"{field}: {now:.3f}s vs committed {base:.3f}s "
                f"(> {tight:.2f}x + {ABS_SLACK_SECONDS:.1f}s tracing-off "
                f"budget — the disabled-tracing fast path grew overhead)"
            )
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fh:
        committed = json.load(fh)
    with open(argv[1]) as fh:
        fresh = json.load(fh)
    # parsed here, not in repro.knobs: CI runs this script without src/
    # on its path, so it must not import the package
    raw = os.environ.get("REPRO_BENCH_BUDGET_FACTOR", DEFAULT_FACTOR)
    try:
        factor = float(raw)
    except ValueError:
        factor = math.nan
    if not (math.isfinite(factor) and factor > 0):
        print(f"REPRO_BENCH_BUDGET_FACTOR must be a finite number > 0, "
              f"got {raw!r} (from REPRO_BENCH_BUDGET_FACTOR environment "
              f"variable)")
        return 2
    failures = check(committed, fresh, factor)
    for field in TRACKED_FIELDS:
        base, now = _dig(committed, field), _dig(fresh, field)
        if base is not None and now is not None:
            print(f"  {field}: {now:.3f}s (committed {base:.3f}s, "
                  f"budget {base * factor + ABS_SLACK_SECONDS:.3f}s)")
    for field, tight in TIGHT_FACTOR_FIELDS.items():
        base, now = _dig(committed, field), _dig(fresh, field)
        if base is not None and now is not None:
            print(f"  {field}: {now:.3f}s (committed {base:.3f}s, "
                  f"budget {base * tight + ABS_SLACK_SECONDS:.3f}s)")
    if failures:
        print("wall-clock budget exceeded:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("wall-clock budget OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
