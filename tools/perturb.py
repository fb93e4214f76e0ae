#!/usr/bin/env python3
"""Which headline keys one ``config.COMPARATORS`` value moves.

    python3 tools/perturb.py ROW.KEY V1 [V2 ...] --experiments ID [ID ...]
    python3 tools/perturb.py ROW.KEY.SUB V1 [V2 ...] --experiments ID ...

runs each experiment ``ID`` of ``repro.experiments.EXPERIMENTS`` in this
process, at the keyword arguments ``benchmarks/figures.py`` runs it at
(``POINTS``): once with the table as it is, then once with
``COMPARATORS[ROW][KEY]`` set to each value ``V`` (a Python literal such
as ``16`` or ``0.5``; anything else is taken as a string).  Where a key
holds one value per case (the ``cpu`` row's per-query OLAP values),
``ROW.KEY.SUB`` names one entry, ``COMPARATORS[ROW][KEY][SUB]``, and only
that entry changes.  The value is restored afterwards, also when a driver
raises.  Per value it prints each headline leaf that differs from the
default run, as ``id.headline.key: default -> value``, or "no leaf
moved".  A value that a module copies at import (a default argument)
would not move with the table; a tier-1 test
(``tests/host/test_comparators.py``) keeps every default argument off the
table.  Standard library plus ``repro``; a driver takes seconds (fig10c
about half a minute), and every value runs all of them again.
"""
import argparse
import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def leaves(node, path: str) -> dict:
    """``{dotted path: value}`` of every non-dict value under ``node``."""
    if not isinstance(node, dict):
        return {path: node}
    found = {}
    for key, child in node.items():
        found.update(leaves(child, f"{path}.{key}"))
    return found


def perturb(table: dict, key: str, values: list, drivers: dict,
            points: dict) -> list[tuple]:
    """Run ``drivers`` (id -> callable returning a result with a
    ``headline``) with ``points[id]`` keyword arguments at ``table[key]``
    as it is and at each of ``values``; returns ``(value, {leaf:
    (default, perturbed)})`` per value, the leaves that moved."""

    def headlines() -> dict:
        found = {}
        for exp_id, driver in drivers.items():
            result = driver(**points.get(exp_id, {}))
            found.update(leaves(result.headline, f"{exp_id}.headline"))
        return found

    default = table[key]
    base = headlines()
    moved = []
    try:
        for value in values:
            table[key] = value
            run = headlines()
            moved.append((value, {
                leaf: (base.get(leaf), run.get(leaf))
                for leaf in sorted(base.keys() | run.keys())
                if base.get(leaf) != run.get(leaf)}))
    finally:
        table[key] = default
    return moved


def locate(table: dict, path: str) -> tuple[dict, str]:
    """The dict holding the value at the dotted ``path`` of ``table``
    (``ROW.KEY`` or ``ROW.KEY.SUB``), and the value's key in it; a
    ``KeyError`` unless ``path`` names one value that is not a dict."""
    *outer, key = path.split(".")
    for part in outer:
        table = table.get(part) if isinstance(table, dict) else None
    if (not outer or not isinstance(table, dict) or key not in table
            or isinstance(table[key], dict)):
        raise KeyError(path)
    return table, key


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def main(argv=None) -> int:
    for entry in (str(HERE / "src"), str(HERE / "benchmarks")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from figures import POINTS
    from repro.config import COMPARATORS
    from repro.experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("value", metavar="ROW.KEY")
    parser.add_argument("values", nargs="+", metavar="V", type=_literal)
    parser.add_argument("--experiments", nargs="+", required=True,
                        metavar="ID", choices=list(EXPERIMENTS))
    args = parser.parse_args(argv)
    try:
        table, key = locate(COMPARATORS, args.value)
    except KeyError:
        parser.error(f"{args.value!r} is not a COMPARATORS value (ROW.KEY, "
                     f"or ROW.KEY.SUB inside a per-case table); rows: "
                     f"{', '.join(COMPARATORS)}")
    drivers = {exp_id: EXPERIMENTS[exp_id] for exp_id in args.experiments}
    print(f"{args.value} = {table[key]!r} (default)")
    for value, moved in perturb(table, key, args.values, drivers, POINTS):
        print(f"{args.value} = {value!r}:")
        for leaf, (before, after) in moved.items():
            print(f"  {leaf}: {before!r} -> {after!r}")
        if not moved:
            print("  no leaf moved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
