"""Settings are arguments: what each retired ``REPRO_*`` variable became.

Every setting but tracing is a constructor argument, a config field or
(the launch watchdog) an attribute, checked once by the code that owns
it.  ``REPRO_TRACE`` is the one environment variable left, read once at
import by :func:`repro.obs.tracer.read_environment`, which refuses every
other ``REPRO_*`` name.  One row per former variable drives every case:
its raw strings now go to that reader, its typed values to the setting
that replaced it.  Partition-spec syntax belongs to the partition parser
(``tests/cluster/test_partitions.py``), so that row has no bad values.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterRuntime, make_cluster_platform
from repro.cluster.partitions import SPX_SPEC
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.ndp.device import M2NDPDevice
from repro.obs import tracer
from repro.serve import ServingEngine, TenantSpec
from repro.serve.batcher import BatchPolicy
from repro.sim.engine import Simulator

#: (variable, good raw string, what it means, raw strings that must fail)
TABLE = [
    ("REPRO_EXEC_BACKEND", "interpreter", "interpreter",
     ("jit", "Batched", "")),
    ("REPRO_CLUSTER_SCHEDULER", "round_robin", "round_robin", ("fifo",)),
    ("REPRO_PARTITIONS", "rt:1,batch:3", "rt:1,batch:3", ()),
    ("REPRO_SERVE_SCHEDULER", "fifo", "fifo", ("lottery",)),
    ("REPRO_SERVE_MAX_BATCH", "4", 4,
     ("many", "0", "-1", "4.0", "٣", " 7", "1_0")),
    ("REPRO_SERVE_MAX_WAIT_NS", "1500", 1500.0, ("soon", "nan", "inf", "-1")),
    ("REPRO_LAUNCH_TIMEOUT_NS", "2500", 2500.0, ("soon", "-5", "nan", "inf")),
    ("REPRO_TRACE", "1", True, ("yes", "")),
    ("REPRO_MONITOR", "0", False, ("yes",)),
]
BAD = [(name, bad) for name, _, _, bads in TABLE for bad in bads]

per_knob = pytest.mark.parametrize(
    "name, good, expected", [row[:3] for row in TABLE],
    ids=[row[0] for row in TABLE])
per_bad_value = pytest.mark.parametrize("name, bad", BAD)

UNSET = object()


def _kw(name, value):
    return {} if value is UNSET else {name: value}


def _runtime(**kwargs):
    return ClusterRuntime(cluster=ClusterConfig(num_devices=1), **kwargs)


def _engine(**kwargs):
    platform = make_cluster_platform(num_devices=1)
    return ServingEngine(platform, [TenantSpec("t", "vecadd")], **kwargs)


def _launch_timeout(value=UNSET):
    runtime = _runtime()
    if value is not UNSET:
        runtime.launch_timeout_ns = value
    return runtime.launch_timeout_ns


#: variable -> (the argument, field or attribute that replaced it, its
#: default as observed, observe(value) -> the value the owner ends up with)
SETTINGS = {
    "REPRO_EXEC_BACKEND": ("backend", "batched", lambda v=UNSET: M2NDPDevice(
        Simulator(), **_kw("backend", v)).backend.name),
    "REPRO_CLUSTER_SCHEDULER": ("scheduler", "locality", lambda v=UNSET:
                                _runtime(**_kw("scheduler", v))
                                .scheduler.policy),
    "REPRO_PARTITIONS": ("partitions", SPX_SPEC, lambda v=UNSET: _runtime(
        **_kw("partitions", v)).partitions.spec),
    "REPRO_SERVE_SCHEDULER": ("scheduler", "wfq", lambda v=UNSET: _engine(
        **_kw("scheduler", v)).scheduler.policy),
    "REPRO_SERVE_MAX_BATCH": ("max_batch", 8, lambda v=UNSET: BatchPolicy(
        **_kw("max_batch", v)).max_batch),
    "REPRO_SERVE_MAX_WAIT_NS": ("max_wait_ns", 2000.0, lambda v=UNSET:
                                BatchPolicy(**_kw("max_wait_ns", v))
                                .max_wait_ns),
    "REPRO_LAUNCH_TIMEOUT_NS": ("launch_timeout_ns", 0.0, _launch_timeout),
    "REPRO_TRACE": ("REPRO_TRACE", False, lambda v=UNSET:
                    tracer.read_environment(_kw("REPRO_TRACE", v))),
    "REPRO_MONITOR": ("monitoring", True, lambda v=UNSET: _engine(
        **_kw("monitoring", v)).monitoring is not None),
}

#: the settings whose argument overrides a ClusterConfig field
CONFIG_BACKED = {
    "REPRO_CLUSTER_SCHEDULER": lambda runtime: runtime.scheduler.policy,
    "REPRO_PARTITIONS": lambda runtime: runtime.partitions.spec,
}


def _explicit(name, good, expected):
    """What a caller passes: the reader takes the raw string, every
    other owner the typed value."""
    return good if name == "REPRO_TRACE" else expected


def test_table_has_one_row_per_registered_knob():
    assert [row[0] for row in TABLE] == list(SETTINGS)


@per_knob
def test_unset_is_the_fallback_else_the_declared_default(
        name, good, expected):
    field, default, observe = SETTINGS[name]
    assert observe() == default
    if name in CONFIG_BACKED:
        # an unpassed argument falls back to the ClusterConfig field
        runtime = ClusterRuntime(cluster=ClusterConfig(
            num_devices=1, **{field: expected}))
        assert CONFIG_BACKED[name](runtime) == expected


@per_knob
def test_environment_value_is_parsed(name, good, expected):
    # REPRO_TRACE parses to its flag; a retired variable is refused by
    # name even at a value it once accepted
    environ = {name: good}
    if name == "REPRO_TRACE":
        assert tracer.read_environment(environ) is True
        return
    with pytest.raises(ConfigError, match=f"^{name}: not read"):
        tracer.read_environment(environ)


@per_knob
def test_explicit_beats_environment(monkeypatch, name, good, expected):
    # once imported, nothing reads the process environment: a set
    # variable moves neither an explicit value nor a default
    monkeypatch.setenv(name, "?broken")
    _, default, observe = SETTINGS[name]
    assert observe(_explicit(name, good, expected)) == expected
    assert observe() == default


@per_bad_value
def test_bad_environment_value_names_the_variable(name, bad):
    with pytest.raises(ConfigError) as err:
        tracer.read_environment({name: bad})
    text = str(err.value)
    assert text.startswith(name)
    if name == "REPRO_TRACE":
        assert f"got {bad!r} (from REPRO_TRACE environment variable)" in text


@per_bad_value
def test_explicit_value_goes_through_the_same_check(name, bad):
    argument, _, observe = SETTINGS[name]
    with pytest.raises(ConfigError) as err:
        observe(bad)
    assert argument in str(err.value)
    assert repr(bad) in str(err.value)


@pytest.mark.parametrize("name, value", [
    ("REPRO_SERVE_MAX_WAIT_NS", math.nan),
    ("REPRO_SERVE_MAX_WAIT_NS", math.inf),
    ("REPRO_SERVE_MAX_BATCH", 0),
    ("REPRO_LAUNCH_TIMEOUT_NS", -5.0),
    ("REPRO_SERVE_MAX_BATCH", object()),                # not a number at all
])
def test_typed_explicit_values_are_checked_too(name, value):
    argument, _, observe = SETTINGS[name]
    with pytest.raises(ConfigError, match=argument):
        observe(value)


def test_typed_explicit_values_are_converted():
    assert _engine(monitoring=True).monitoring is not None
    assert _engine(monitoring=False).monitoring is None
    assert _launch_timeout(100) == 100.0
    assert BatchPolicy(max_wait_ns=100).max_wait_ns == 100
    assert _runtime(partitions="").partitions.spec == SPX_SPEC


def _python(code: str, **env: str) -> subprocess.CompletedProcess:
    src = str(Path(tracer.__file__).resolve().parents[2])
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": src, **env})


def test_import_time_knobs_are_read_at_import():
    done = _python("import repro.obs.tracer as t; print(t.ENABLED)",
                   REPRO_TRACE="1")
    assert done.stdout.split() == ["True"], done.stderr
    bad = _python("import repro.obs.tracer", REPRO_TRACE="yes")
    assert bad.returncode != 0
    assert "ConfigError: REPRO_TRACE must be" in bad.stderr


def test_a_retired_variable_fails_at_import():
    done = _python("import repro.obs.tracer",
                   REPRO_EXEC_BACKEND="interpreter")
    assert done.returncode != 0
    assert "ConfigError: REPRO_EXEC_BACKEND: not read" in done.stderr


def test_knobs_imports_nothing_from_repro_but_errors():
    # the reader runs at import, so the tracer must not pull in the stack
    tree = ast.parse(Path(tracer.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.col_offset == 0}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert {m for m in imported if m.startswith("repro")} == {"repro.errors"}
