"""Every ``REPRO_*`` setting: declared once, resolved by one function.

This is the only module that reads ``os.environ``.  A setting reaches
the code as ``knobs.resolve(NAME, explicit, fallback=...)`` with one
precedence everywhere — **explicit argument > environment variable >
fallback** (a config field, else the declared default) — and one
:class:`~repro.errors.ConfigError` wording that names the variable, the
accepted values, the offending value and where it came from.  Explicit
arguments go through the same check as environment strings.

It imports nothing from ``repro`` but :mod:`repro.errors`, so any module
may resolve a knob at import (``obs.tracer`` and ``experiments.common``
do); choice sets owned by other modules are looked up when first needed.

``python -m repro.knobs`` prints the README "Knobs" table generated from
the declarations; ``--check README.md`` exits 1 when the block between
the ``knobs:begin`` / ``knobs:end`` markers has drifted from it.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError

README_BEGIN = "<!-- knobs:begin -->"
README_END = "<!-- knobs:end -->"


def _flag(raw) -> bool:
    return {"0": False, "1": True}[raw] if isinstance(raw, str) else bool(raw)


def _int(raw) -> int:
    # int() alone would take '٣', ' 7 ' and '1_0'
    if isinstance(raw, str) and not re.fullmatch(r"-?[0-9]+", raw):
        raise ValueError(raw)
    return int(raw)


#: kind -> converter of an environment string or an explicit argument; a
#: KeyError / TypeError / ValueError rejects the value.
_CONVERT = {"flag": _flag, "int": _int, "float": float,
            "choice": str, "spec": str}


@dataclass(frozen=True)
class Knob:
    """One setting.  ``values`` is the phrase errors and the README use
    for the accepted set — or, for a ``choice``, a callable returning the
    owner's names; ``default`` is None when a config field supplies it."""

    name: str
    kind: str
    values: str | Callable[[], Sequence[str]]
    default: object
    check: Callable[[object], bool] | None
    doc: str

    def describe(self) -> str:
        if callable(self.values):
            return "one of " + ", ".join(repr(v) for v in self.values())
        return self.values

    def accept(self, raw, source: str):
        """``raw`` converted to the knob's type, or ConfigError."""
        try:
            value = _CONVERT[self.kind](raw)
            ok = (value in self.values() if callable(self.values)
                  else self.check is None or self.check(value))
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"{self.name} must be {self.describe()}, "
                              f"got {raw!r} (from {source})")
        return value


def _backends() -> Sequence[str]:
    from repro.exec.base import backend_names
    return backend_names()


def _cluster_schedulers() -> Sequence[str]:
    from repro.cluster.scheduler import SCHEDULERS
    return SCHEDULERS


def _serve_schedulers() -> Sequence[str]:
    from repro.serve.qos import SERVE_SCHEDULERS
    return SERVE_SCHEDULERS


def _at_least(low: float) -> Callable[[float], bool]:
    return lambda v: math.isfinite(v) and v >= low


_FLAG = "'0' or '1'"

KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob("REPRO_EXEC_BACKEND", "choice", _backends, None, None,
         "Execution backend of every `M2NDPDevice` built without an "
         "explicit `backend=` (config default: `NDPConfig.backend`, "
         "`interpreter`)."),
    Knob("REPRO_EXPERIMENT_BACKEND", "choice", _backends, "batched", None,
         "Default backend for the figure drivers and experiments only; "
         "read once, at `import repro.experiments.common`."),
    Knob("REPRO_TRACE_CACHE", "flag", _FLAG, True, None,
         "`0` disables the cross-launch trace cache; every launch pays "
         "the trace tier."),
    Knob("REPRO_CLUSTER_SCHEDULER", "choice", _cluster_schedulers, None,
         None, "Cluster fan-out placement policy for sub-launches (config "
         "default: `ClusterConfig.scheduler`, `locality`)."),
    Knob("REPRO_PARTITIONS", "spec",
         "a comma-separated name[:weight] spec such as 'rt:1,batch:3'",
         None, None,
         "Splits every device of a `ClusterRuntime` / "
         "`make_cluster_platform` (not single-device `make_platform`) into "
         "hardware partitions with private unit / L2 / DRAM-channel "
         "shares; checked against the device at construction, resolved "
         "map recorded in the run manifest.  Unset or empty (config "
         "default: `ClusterConfig.partitions`) is the one-partition map, "
         "MI300 SPX."),
    Knob("REPRO_SERVE_SCHEDULER", "choice", _serve_schedulers, "wfq", None,
         "Serving dispatch discipline."),
    Knob("REPRO_SERVE_MAX_BATCH", "int", "an integer >= 1", 8,
         _at_least(1), "Dynamic batching width; `1` disables batching."),
    Knob("REPRO_SERVE_MAX_WAIT_NS", "float", "a finite number >= 0",
         2000.0, _at_least(0),
         "How long a forming batch may hold for more requests."),
    Knob("REPRO_LAUNCH_TIMEOUT_NS", "float", "a finite number >= 0", 0.0,
         _at_least(0),
         "Cluster launch watchdog: launches unfinished after this many "
         "sim-ns fail with a typed `LaunchFailed(reason=\"timeout\")`; "
         "`0` disables it."),
    Knob("REPRO_TRACE", "flag", _FLAG, False, None,
         "Enables the observability subsystem (span tracing + "
         "utilization sampling); read once, at `import repro.obs.tracer`."),
    Knob("REPRO_MONITOR", "flag", _FLAG, True, None,
         "`0` disables the always-on monitoring stack (SLO monitor, "
         "flight recorder, incident reporter) entirely."),
)}


def resolve(name: str, explicit=None, *, fallback=None,
            arg: str = "explicit"):
    """Explicit argument > environment > ``fallback`` > declared default.

    ``arg`` names the caller's parameter in the error for a bad explicit
    value; ``fallback`` is the config field of a config-backed knob.
    """
    knob = KNOBS[name]
    if explicit is not None:
        return knob.accept(explicit, f"{arg} argument")
    raw = os.environ.get(name)
    if raw is not None:
        return knob.accept(raw, f"{name} environment variable")
    return fallback if fallback is not None else knob.default


def environment() -> tuple[dict[str, str], list[str]]:
    """Every set ``REPRO_*`` variable, sorted — and the names among them
    that nothing reads (a typo'd knob is otherwise ignored silently)."""
    env = {key: value for key, value in sorted(os.environ.items())
           if key.startswith("REPRO_")}
    return env, [key for key in env if key not in KNOBS]


def readme_table() -> str:
    """The README "Knobs" table, one row per declaration."""
    rows = ["| Variable | Values (default) | Effect |", "| --- | --- | --- |"]
    for knob in KNOBS.values():
        values = re.sub(r"'([^']*)'", r"`\1`", knob.describe())
        default = ("config default" if knob.default is None
                   else f"`{knob.default}`" if isinstance(knob.default, str)
                   else f"`{knob.default:g}`")
        rows.append(f"| `{knob.name}` | {values} ({default}) | {knob.doc} |")
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    if not argv:
        print(readme_table())
        return 0
    if len(argv) != 2 or argv[0] != "--check":
        print("usage: python -m repro.knobs [--check README.md]")
        return 2
    with open(argv[1]) as fh:
        text = fh.read()
    block = text.partition(README_BEGIN)[2].partition(README_END)[0]
    if block.strip() != readme_table():
        print(f"{argv[1]}: the block between {README_BEGIN} and "
              f"{README_END} is not what `python -m repro.knobs` prints")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
