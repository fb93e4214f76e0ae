"""``benchmarks/check_budget.py``: a tracked wall field that one of the
two files lacks is a failure — a budget that stops comparing protects
nothing (the committed baseline once lacked ``partition_point`` and both
of its budgets silently never ran)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks/check_budget.py"
_spec = importlib.util.spec_from_file_location("check_budget", _PATH)
check_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_budget)

ALL_FIELDS = (check_budget.TRACKED_FIELDS
              + tuple(check_budget.TIGHT_FACTOR_FIELDS))


def _payload(seconds: float = 1.0, drop: str | None = None) -> dict:
    payload: dict = {}
    for field in ALL_FIELDS:
        if field == drop:
            continue
        *parents, leaf = field.split(".")
        node = payload
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = seconds
    return payload


def test_complete_files_within_budget_pass():
    assert check_budget.check(_payload(), _payload(), 2.0) == []


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_field_missing_from_either_file_fails(field):
    for committed, fresh, where in (
            (_payload(drop=field), _payload(), "committed baseline"),
            (_payload(), _payload(drop=field), "fresh run")):
        (failure,) = check_budget.check(committed, fresh, 2.0)
        assert field in failure and where in failure


def test_regression_still_fails():
    failures = check_budget.check(_payload(1.0), _payload(10.0), 2.0)
    assert len(failures) == len(ALL_FIELDS)


@pytest.mark.parametrize("raw", ["fast", "nan", "inf", "0", "-2", ""])
def test_bad_budget_factor_exits_2_naming_the_variable(
        raw, tmp_path, monkeypatch, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(_payload()))
    monkeypatch.setenv("REPRO_BENCH_BUDGET_FACTOR", raw)
    assert check_budget.main([str(path), str(path)]) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("REPRO_BENCH_BUDGET_FACTOR must be")
    monkeypatch.setenv("REPRO_BENCH_BUDGET_FACTOR", "3")
    assert check_budget.main([str(path), str(path)]) == 0
