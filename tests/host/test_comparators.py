"""The comparators read every number from ``config.COMPARATORS`` or from
the ``SystemConfig`` field that holds it, at the call, and each row value
names its source."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import repro
from repro.config import COMPARATORS, default_system
from repro.experiments import EXPERIMENTS
from repro.host import offload
from repro.host.gpu import make_gpu_ndp
from repro.sim.engine import Simulator
from repro.workloads.olap import QUERIES
from tests.test_perturb_tool import _tool as _perturb_tool

PACKAGE = Path(repro.__file__).parent

#: unit factors a formula may spell out: bits per byte, halves, pJ and ns
UNIT_FACTORS = {0, 1, 2, 8, 1e-9, 1e-12}

#: module -> the comparator functions in it (None: every function)
COMPARATOR_FUNCTIONS = {
    "host/cpu.py": None,
    "host/nsu.py": None,
    "host/dsa.py": None,
    "energy/model.py": None,
    "host/gpu.py": {"make_gpu_baseline", "make_gpu_ndp"},
    "workloads/olap.py": {"baseline_evaluate_ns", "cpu_ndp_evaluate_ns",
                          "ideal_ndp_evaluate_ns", "full_query_phases_ns"},
    "workloads/kvstore.py": {"run_baseline"},
    "host/offload.py": {"timeline"},
}

SOURCE = re.compile(r"Table IV|§|\[\d+\]|Fig \d|calibration")


def _functions(tree, names):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and (names is None or node.name in names)):
            yield node


def test_no_numeric_literal_in_a_comparator_function():
    found = []
    for module, names in COMPARATOR_FUNCTIONS.items():
        tree = ast.parse((PACKAGE / module).read_text())
        functions = list(_functions(tree, names))
        assert names is None or {f.name for f in functions} == names
        for function in functions:
            for node in ast.walk(function):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, (int, float))
                        and not isinstance(node.value, bool)
                        and node.value not in UNIT_FACTORS):
                    found.append(f"{module}:{node.lineno} {node.value!r}")
    assert found == []


def test_every_row_value_names_its_source():
    text = (PACKAGE / "config.py").read_text()
    table = next(node for node in ast.parse(text).body
                 if isinstance(node, ast.AnnAssign)
                 and node.target.id == "COMPARATORS")
    depth, values, comments = 0, set(), {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        row = token.start[0]
        if not table.lineno <= row <= table.end_lineno:
            continue
        if token.type == tokenize.COMMENT:
            comments[row] = token.string
        elif token.string in "([{" and token.type == tokenize.OP:
            depth += 1
        elif token.string in ")]}" and token.type == tokenize.OP:
            depth -= 1
        elif token.string == ":" and depth in (2, 3):
            values.add(row)
    # a row value, or one entry of a per-case table inside a row
    assert len(values) == sum(
        len(row) + sum(len(value) for value in row.values()
                       if isinstance(value, dict))
        for row in COMPARATORS.values())
    unsourced = [row for row in sorted(values)
                 if not SOURCE.search(comments.get(row, ""))]
    assert unsourced == []


def test_every_olap_query_has_its_baseline_values():
    for key in ("ns_per_row_predicate", "evaluate_fraction"):
        assert set(COMPARATORS["cpu"][key]) == set(QUERIES)


def _launch_ns() -> float:
    return make_gpu_ndp(Simulator(), default_system(), 8).launch_overhead_ns


def test_gpu_ndp_launch_is_the_direct_mmio_offload(monkeypatch):
    assert _launch_ns() == offload.timeline("cxl_io_dr", 0).overhead_ns
    monkeypatch.setitem(COMPARATORS["cxl_io"], "one_way_ns", 100.0)
    assert _launch_ns() == offload.timeline("cxl_io_dr", 0).overhead_ns == 300


def _name(node) -> str:
    return getattr(node, "id", None) or getattr(node, "attr", "")


def test_no_default_argument_copies_a_table_value_at_import():
    """A default argument is evaluated once, at import: one that reads a
    ``COMPARATORS`` row or builds a ``*Config()`` does not follow a
    perturbed row (``tools/perturb.py``) or a changed config default."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            for default in node.args.defaults + node.args.kw_defaults:
                for sub in ast.walk(default or ast.Constant(None)):
                    if ((isinstance(sub, ast.Subscript)
                         and _name(sub.value) == "COMPARATORS")
                            or (isinstance(sub, ast.Call)
                                and _name(sub.func).endswith("Config"))):
                        found.append(f"{path.relative_to(PACKAGE)}:"
                                     f"{default.lineno}")
    assert found == []


def _outside_the_table(tree):
    """``tree``'s nodes, without the ``COMPARATORS`` assignment's."""
    for node in ast.iter_child_nodes(tree):
        if not (isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "COMPARATORS"):
            yield from ast.walk(node)


def test_every_key_has_a_reader_outside_the_table():
    """Each row name and value key of ``COMPARATORS`` is a string literal
    somewhere in ``src/repro`` outside the table itself (``config.py``'s
    own ``gpu_ndp_config`` reads one): a key nothing reads moves no
    result."""
    literals = {node.value for path in PACKAGE.rglob("*.py")
                for node in _outside_the_table(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    keys = set(COMPARATORS) | {key for row in COMPARATORS.values()
                               for key in row}
    assert sorted(keys - literals) == []


#: Each value the host-side comparators gained from outside the table (the
#: OLAP baseline's per-query values, the KVS hash cost, Fig 5's y)
#: and a driver that reads it.
MOVED_INTO_THE_TABLE = (
    [(f"cpu.{key}.{query}", "fig10a")
     for key in ("ns_per_row_predicate", "evaluate_fraction")
     for query in QUERIES]
    + [("cpu.kvs_hash_ns", "fig10b"), ("cxl_io.one_way_ns", "fig12a")])

#: The drivers' arguments: the ``tiny`` scale keeps all the runs within a
#: few seconds (fig5 is a closed form).
TINY = {exp_id: {"scale_name": "tiny"}
        for exp_id in ("fig10a", "fig10b", "fig12a")}


@pytest.mark.parametrize("path, exp_id", MOVED_INTO_THE_TABLE)
def test_each_value_moves_a_headline_leaf_of_its_driver(path, exp_id):
    """Half the value moves at least one headline leaf of the driver; the
    table is as it was afterwards."""
    tool = _perturb_tool()
    table, key = tool.locate(COMPARATORS, path)
    default = table[key]
    [(_, moved)] = tool.perturb(table, key, [default / 2],
                                {exp_id: EXPERIMENTS[exp_id]}, TINY)
    assert moved and table[key] == default
