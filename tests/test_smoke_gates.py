"""The gate tables of ``benchmarks/smoke.py`` and ``benchmarks/figures.py``
against their committed goldens.

No simulation runs here: the scripts are imported for their ``GATES``
rows, and ``main`` is only ever driven with stub points.
The goldens themselves are compared by CI (`git diff --exit-code
BENCH_smoke.json` / `FIDELITY.json` after regenerating them); the two
share no top-level key, so one merged payload serves both tables."""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.partitioning import blast_radius_confined

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import figures  # noqa: E402
import gates  # noqa: E402
import smoke  # noqa: E402

BENCH = json.loads((ROOT / "BENCH_smoke.json").read_text())
FIDELITY = json.loads(figures.GOLDEN.read_text())
GOLDEN = {**BENCH, **FIDELITY}
GATES = smoke.GATES + figures.GATES


def _set(payload: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = payload
    for part in parents:
        node = node[part]
    node[leaf] = value


def _doctored(leaves: dict) -> dict:
    payload = copy.deepcopy(GOLDEN)
    for dotted, value in leaves.items():
        _set(payload, dotted, value)
    return payload


@pytest.mark.parametrize(
    "gate", GATES, ids=[f"{g[0]}{g[1]}{g[2]}" for g in GATES])
def test_gate(gate):
    """The row's path(s) resolve in the committed golden and it holds."""
    holds, line = gates.check_gate(GOLDEN, gate)
    assert "field missing" not in line
    assert holds, line
    assert gate[0] in line and gate[3] in line


def test_golden_has_exactly_the_points_of_the_table():
    assert sorted(BENCH) == sorted(name for name, _ in smoke.POINTS)
    assert set(FIDELITY) == set(figures.POINTS) | {"summary"}
    assert len(GOLDEN) == len(BENCH) + len(FIDELITY)
    assert set(figures._VERIFIED) == {
        exp_id for exp_id in figures.POINTS
        if "correct" in FIDELITY[exp_id]["headline"]}


def _failing(payload: dict) -> dict:
    """(path, relation) -> summary line of every row that does not hold."""
    results = [(gate, *gates.check_gate(payload, gate)) for gate in GATES]
    return {gate[:2]: line for gate, holds, line in results if not holds}


#: One doctored leaf per relation kind, and one whose bound is a path.
BROKEN = [
    ("==", "kvstore_point.batched.batched_fallbacks", 2.0),
    (">=", "cluster_point.cluster_speedup", 1.19),
    ("<=", "monitoring_point.max_mtta_ns", 5000.5),
    (">", "kvstore_point.batched.trace_cache_hits", 0.0),
    (">", "traffic_point.trace_cache_hits", 8.0),
    ("<", "fig6b.headline.spad_traffic_ratio", 1.0),
    ("==", "resilience.headline.healthy_retry_identical", False),
    (">=", "summary.hold", 25),
    ("<=", "area.headline.ratio_error_max", 0.1201),
    (">", "fig13a-ltu.headline.gmean_4xltu", 161.0),
]


@pytest.mark.parametrize("relation, path, broken", BROKEN)
def test_each_relation_kind_fails_on_a_doctored_leaf(relation, path, broken):
    assert list(_failing(_doctored({path: broken}))) == [(path, relation)]


def test_the_doctored_leaves_cover_every_relation_kind():
    assert {relation for relation, _, _ in BROKEN} == set(gates.RELATIONS)


def test_a_missing_field_fails_its_row_instead_of_raising():
    payload = copy.deepcopy(GOLDEN)
    del payload["serving_point"]["throughput_gain"]
    del payload["partitioning-containment"]
    failing = _failing(payload)
    assert ("serving_point.throughput_gain", ">=") in failing
    assert all("field missing" in line for line in failing.values())
    assert sum(path.startswith("partitioning-containment.")
               for path, _ in failing) == 7


@pytest.mark.parametrize("blast, confined", [
    ("dev0.batch:5", True),
    ("dev0.batch:5,dev1.batch:2", True),
    ("none", False),
    ("dev0.batch:5,dev0.rt:1", False),
])
def test_blast_radius_check(blast, confined):
    """``dev<d>.<partition>:<events>`` groups, as ring rows; a
    tenant-attributed row belongs to no partition."""
    ring = [{"kind": "serve.launch", "tenant": "rt"}]
    for group in blast.split(",") if blast != "none" else ():
        scope, events = group.split(":")
        device, partition = scope.split(".")
        ring += [{"kind": "fault.partition_kill", "device": int(device[3:]),
                  "detail": {"partition": partition}}] * int(events)
    assert blast_radius_confined(ring, "batch") is confined


def test_main_lists_every_failing_row_not_just_the_first(
        tmp_path, monkeypatch, capsys):
    doctored = _doctored({
        "fig06_point.batched.batched_fallbacks": 1.0,
        "serving_point.throughput_gain": 1.0,
        "monitoring_point.recall": 0.5,
    })
    doctored = {name: doctored[name] for name in BENCH}
    monkeypatch.setattr(smoke, "POINTS", tuple(
        (name, lambda value=value: value) for name, value in doctored.items()))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        smoke.main(str(out))
    message = str(exit_info.value)
    assert message.startswith("3 of ")
    for path in ("fig06_point.batched.batched_fallbacks",
                 "serving_point.throughput_gain",
                 "monitoring_point.recall"):
        assert path in message
    # the payload is written before gating, and the summary has every row
    assert json.loads(out.read_text()) == doctored
    summary = capsys.readouterr().out
    assert summary.count("\n  FAIL ") == 3
    assert summary.count("\n  ok   ") == len(smoke.GATES) - 3


def test_main_passes_on_the_golden_and_writes_it_back_byte_for_byte(
        tmp_path, monkeypatch):
    monkeypatch.setattr(smoke, "POINTS", tuple(
        (name, lambda name=name: BENCH[name]) for name, _ in smoke.POINTS))
    out = tmp_path / "bench.json"
    assert smoke.main(str(out)) == BENCH
    assert out.read_text() == (ROOT / "BENCH_smoke.json").read_text()


def test_figures_main_rebuilds_the_golden_from_its_headlines(
        tmp_path, monkeypatch):
    """The committed scorecards and summary are what ``scorecard()`` makes
    of the committed headlines and today's ``PAPER_REFERENCE``."""
    monkeypatch.setattr(figures, "EXPERIMENTS", {
        exp_id: lambda exp_id=exp_id, **kwargs: ExperimentResult(
            exp_id, "stub", headline=FIDELITY[exp_id]["headline"])
        for exp_id in figures.POINTS})
    out = tmp_path / "fidelity.json"
    assert figures.main(str(out)) == FIDELITY
    assert out.read_text() == figures.GOLDEN.read_text()


def test_readme_table_is_the_golden_s(tmp_path, capsys):
    readme = ROOT / "README.md"
    assert figures.check_readme(str(readme)) == 0
    row = "| `fig1a` | `max_slowdown` | 9.9 |"
    edited = tmp_path / "README.md"
    edited.write_text(readme.read_text().replace(row, row.replace("9.9", "9")))
    assert figures.check_readme(str(edited)) == 1
    assert "figures.py --table" in capsys.readouterr().out


def _keys(node: dict):
    """Every key of the nested dicts (a list is a leaf)."""
    for key, value in node.items():
        yield key
        if isinstance(value, dict):
            yield from _keys(value)


def test_golden_holds_no_host_dependent_field():
    assert [key for key in _keys(GOLDEN)
            if re.search(r"wall|overhead|python", key)] == []


def test_smoke_never_reads_the_host_clock():
    for script in ("smoke.py", "figures.py", "gates.py"):
        source = (ROOT / "benchmarks" / script).read_text()
        assert not re.search(r"^\s*(import time|from time\b)|perf_counter|"
                             r"platform\.python_version", source, re.M)
