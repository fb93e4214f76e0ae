"""The gate table of ``benchmarks/figures.py`` against the committed
``FIDELITY.json``.

No simulation runs here: the script is imported for its ``GATES`` rows,
and ``main`` is only ever driven with stub experiments that return the
golden's (or doctored) headlines.  The golden itself is compared by CI
(`git diff --exit-code FIDELITY.json` after regenerating it)."""

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

GOLDEN = json.loads(figures.GOLDEN.read_text())


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
    "gate", figures.GATES, ids=[f"{g[0]}{g[1]}{g[2]}" for g in figures.GATES])
def test_gate(gate):
    """The row's path(s) resolve in the committed golden and it holds."""
    holds, line = figures.check_gate(GOLDEN, gate)
    assert "field missing" not in line
    assert holds, line
    assert gate[0] in line and gate[3] in line


def test_golden_has_exactly_the_points_of_the_table():
    assert set(GOLDEN) == set(figures.POINTS) | {"summary"}
    assert set(figures._VERIFIED) == {
        exp_id for exp_id in figures.POINTS
        if "correct" in GOLDEN[exp_id]["headline"]}


def _failing(payload: dict) -> dict:
    """(path, relation) -> summary line of every row that does not hold."""
    results = [(gate, *figures.check_gate(payload, gate))
               for gate in figures.GATES]
    return {gate[:2]: line for gate, holds, line in results if not holds}


#: One doctored leaf per relation kind, and one whose bound is a path.
BROKEN = [
    (">=", "scaling.headline.agg_speedup_x2", 1.19),
    ("<", "fig6b.headline.spad_traffic_ratio", 1.0),
    ("==", "resilience.headline.healthy_retry_identical", False),
    (">=", "summary.hold", 25),
    ("<=", "area.headline.ratio_error_max", 0.1201),
    ("<=", "engines.headline.dlrm_err", 20.5),
    (">", "fig13a-ltu.headline.gmean_4xltu", 161.0),
]


@pytest.mark.parametrize("relation, path, broken", BROKEN)
def test_each_relation_kind_fails_on_a_doctored_leaf(relation, path, broken):
    assert list(_failing(_doctored({path: broken}))) == [(path, relation)]


def test_the_doctored_leaves_cover_every_relation_kind():
    assert {relation for relation, _, _ in BROKEN} == set(figures.RELATIONS)


def test_every_engine_error_has_a_ratchet_row():
    """A kernel cannot join the ``engines`` driver without a bound."""
    errors = {key for key in GOLDEN["engines"]["headline"]
              if key.endswith("_err")}
    bounded = {path.removeprefix("engines.headline.")
               for path, relation, _, _ in figures.GATES
               if path.startswith("engines.headline.") and relation == "<="}
    assert errors and errors <= bounded


def test_a_missing_field_fails_its_row_instead_of_raising():
    payload = copy.deepcopy(GOLDEN)
    del payload["scaling"]["headline"]["agg_speedup_x2"]
    del payload["partitioning-containment"]
    failing = _failing(payload)
    assert ("scaling.headline.agg_speedup_x2", ">=") in failing
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


def _stub_experiments(monkeypatch, fidelity: dict) -> None:
    """Every driver returns ``fidelity``'s headline for its id."""
    monkeypatch.setattr(figures, "EXPERIMENTS", {
        exp_id: lambda exp_id=exp_id, **kwargs: ExperimentResult(
            exp_id, "stub", headline=fidelity[exp_id]["headline"])
        for exp_id in figures.POINTS})


def test_main_lists_every_failing_row_not_just_the_first(
        tmp_path, monkeypatch, capsys):
    # headline keys no PAPER_REFERENCE entry scores, so only these rows move
    leaves = {"scaling.headline.agg_speedup_x2": 1.0,
              "serving-autoscale.headline.scale_ups": 0,
              "resilience-monitoring.headline.recall_min": 0.5}
    doctored = _doctored(leaves)
    _stub_experiments(monkeypatch, doctored)
    out = tmp_path / "fidelity.json"
    with pytest.raises(SystemExit) as exit_info:
        figures.main(str(out))
    message = str(exit_info.value)
    assert message.startswith("3 of ")
    for path in leaves:
        assert path in message
    # the payload is written before gating, and the summary has every row
    assert json.loads(out.read_text()) == doctored
    summary = capsys.readouterr().out
    assert summary.count("\n  FAIL ") == 3
    assert summary.count("\n  ok   ") == len(figures.GATES) - 3


def test_main_passes_on_the_golden_and_writes_it_back_byte_for_byte(
        tmp_path, monkeypatch, capsys):
    _stub_experiments(monkeypatch, GOLDEN)
    out = tmp_path / "fidelity.json"
    figures.main(str(out))
    assert out.read_text() == figures.GOLDEN.read_text()
    summary = capsys.readouterr().out
    assert "\n  FAIL " not in summary
    assert summary.count("\n  ok   ") == len(figures.GATES)


def test_figures_main_rebuilds_the_golden_from_its_headlines(
        tmp_path, monkeypatch):
    """The committed scorecards and summary are what ``scorecard()`` makes
    of the committed headlines and today's ``PAPER_REFERENCE``."""
    _stub_experiments(monkeypatch, GOLDEN)
    assert figures.main(str(tmp_path / "fidelity.json")) == GOLDEN


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


def test_figures_never_reads_the_host_clock():
    source = (ROOT / "benchmarks" / "figures.py").read_text()
    assert not re.search(r"^\s*(import time|from time\b)|perf_counter|"
                         r"platform\.python_version", source, re.M)
