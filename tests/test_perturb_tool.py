"""tools/perturb.py: the headline leaves one table value moves, on a stub
experiment that reads it."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perturb.py"


def _tool():
    spec = importlib.util.spec_from_file_location("perturb", TOOL)
    perturb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perturb)
    return perturb


def _stub(table):
    """A driver whose headline reads ``table["cores"]`` through a floor
    of 16, and holds one key it never changes."""

    def run(scale: int = 1):
        return SimpleNamespace(headline={
            "served": scale * max(table["cores"], 16),
            "nested": {"fixed": 1.0, "cores": table["cores"]},
            "correct": True,
        })
    return run


def test_prints_only_the_leaves_a_value_moves():
    table = {"cores": 64, "mlp": 10}
    moved = _tool().perturb(table, "cores", [8, 32, 64],
                            {"stub": _stub(table)}, {"stub": {"scale": 2}})
    assert moved == [
        (8, {"stub.headline.nested.cores": (64, 8),
             "stub.headline.served": (128, 32)}),
        (32, {"stub.headline.nested.cores": (64, 32),
              "stub.headline.served": (128, 64)}),
        (64, {}),
    ]
    assert table == {"cores": 64, "mlp": 10}


def test_restores_the_row_when_a_driver_raises():
    table = {"cores": 64}

    def fragile():
        if table["cores"] != 64:
            raise RuntimeError("bad value")
        return SimpleNamespace(headline={"cores": table["cores"]})

    with pytest.raises(RuntimeError):
        _tool().perturb(table, "cores", [1], {"fragile": fragile}, {})
    assert table == {"cores": 64}


def test_cli_names_a_value_that_moves_nothing(capsys):
    from repro.config import COMPARATORS
    before = dict(COMPARATORS["cpu"])
    assert _tool().main(["cpu.cores", "8", "--experiments", "area"]) == 0
    assert COMPARATORS["cpu"] == before
    assert capsys.readouterr().out.splitlines() == [
        "cpu.cores = 64 (default)", "cpu.cores = 8:", "  no leaf moved"]


def test_cli_refuses_a_key_outside_the_table():
    # nor a path that names a whole per-case table, an entry under a
    # value, a missing entry or a whole row
    for path in ("cpu.no_such_key", "cpu.evaluate_fraction",
                 "cpu.cores.q6", "cpu.evaluate_fraction.q99", "cpu"):
        with pytest.raises(SystemExit):
            _tool().main([path, "1", "--experiments", "area"])


def test_cli_changes_one_nested_entry_and_restores_it(monkeypatch, capsys):
    """``ROW.KEY.SUB`` changes one entry of a per-case table, and puts it
    back also when a driver raises on the changed value."""
    from repro import experiments
    from repro.config import COMPARATORS
    fractions = COMPARATORS["cpu"]["evaluate_fraction"]
    before = dict(fractions)

    def reader():
        return SimpleNamespace(headline={"q6": fractions["q6"],
                                         "q14": fractions["q14"]})

    def fragile():
        if fractions["q6"] != before["q6"]:
            raise RuntimeError("bad value")
        return SimpleNamespace(headline={})

    monkeypatch.setitem(experiments.EXPERIMENTS, "reader", reader)
    monkeypatch.setitem(experiments.EXPERIMENTS, "fragile", fragile)
    tool = _tool()
    path = "cpu.evaluate_fraction.q6"
    assert tool.main([path, "0.1", "--experiments", "reader"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{path} = {before['q6']!r} (default)", f"{path} = 0.1:",
        f"  reader.headline.q6: {before['q6']!r} -> 0.1"]
    with pytest.raises(RuntimeError):
        tool.main([path, "0.1", "--experiments", "fragile"])
    assert COMPARATORS["cpu"]["evaluate_fraction"] is fractions
    assert fractions == before

