"""``repro.knobs``: every ``REPRO_*`` setting goes through one ``resolve``.

One row per knob drives every case, so a new knob is one new row.  What
a *constructor* does with a resolved value is tested next to that
constructor (``tests/cluster``, ``tests/serve``, ``tests/exec``,
``tests/obs``); partition-spec syntax belongs to the partition parser
(``tests/cluster/test_partitions.py``), so that row has no bad values.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro import knobs
from repro.errors import ConfigError

#: (name, good raw string, what it resolves to, raw strings that must fail)
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


def test_table_has_one_row_per_registered_knob():
    assert [row[0] for row in TABLE] == list(knobs.KNOBS)


@per_knob
def test_unset_is_the_fallback_else_the_declared_default(
        monkeypatch, name, good, expected):
    monkeypatch.delenv(name, raising=False)
    assert knobs.resolve(name) == knobs.KNOBS[name].default
    assert knobs.resolve(name, fallback=expected) == expected


@per_knob
def test_environment_value_is_parsed(monkeypatch, name, good, expected):
    monkeypatch.setenv(name, good)
    value = knobs.resolve(name, fallback="ignored")
    assert value == expected and type(value) is type(expected)


@per_knob
def test_explicit_beats_environment(monkeypatch, name, good, expected):
    # the environment is not even parsed: a broken variable cannot
    # override a call site that pins its value
    monkeypatch.setenv(name, "?broken")
    assert knobs.resolve(name, expected) == expected
    assert knobs.resolve(name, good) == expected


@per_bad_value
def test_bad_environment_value_names_the_variable(monkeypatch, name, bad):
    monkeypatch.setenv(name, bad)
    with pytest.raises(ConfigError) as err:
        knobs.resolve(name)
    text = str(err.value)
    assert text.startswith(f"{name} must be ")
    assert f"got {bad!r} (from {name} environment variable)" in text


@per_bad_value
def test_explicit_value_goes_through_the_same_check(monkeypatch, name, bad):
    monkeypatch.delenv(name, raising=False)
    with pytest.raises(ConfigError) as err:
        knobs.resolve(name, bad, arg="my_arg")
    text = str(err.value)
    assert text.startswith(f"{name} must be ")
    assert f"got {bad!r} (from my_arg argument)" in text


@pytest.mark.parametrize("name, value", [
    ("REPRO_SERVE_MAX_WAIT_NS", math.nan),
    ("REPRO_SERVE_MAX_WAIT_NS", math.inf),
    ("REPRO_SERVE_MAX_BATCH", 0),
    ("REPRO_LAUNCH_TIMEOUT_NS", -5.0),
    ("REPRO_SERVE_MAX_BATCH", object()),                # not a number at all
])
def test_typed_explicit_values_are_checked_too(name, value):
    with pytest.raises(ConfigError, match=name):
        knobs.resolve(name, value)


def test_typed_explicit_values_are_converted():
    assert knobs.resolve("REPRO_MONITOR", True) is True
    assert knobs.resolve("REPRO_MONITOR", 0) is False
    assert knobs.resolve("REPRO_LAUNCH_TIMEOUT_NS", 100) == 100.0
    assert knobs.resolve("REPRO_PARTITIONS", "") == ""   # the one-partition map


def _python(code: str, **env: str) -> subprocess.CompletedProcess:
    src = str(Path(knobs.__file__).resolve().parent.parent)
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


def test_knobs_imports_nothing_from_repro_but_errors():
    tree = ast.parse(Path(knobs.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.col_offset == 0}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert {m for m in imported if m.startswith("repro")} == {"repro.errors"}
