"""The comparators read every number from ``config.COMPARATORS`` or from
the ``SystemConfig`` field that holds it, and each row value names its
source."""

import ast
import io
import re
import tokenize
from pathlib import Path

import repro
from repro.config import COMPARATORS
from repro.host import offload

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
        elif token.string == ":" and depth == 2:
            values.add(row)
    assert len(values) == sum(len(row) for row in COMPARATORS.values())
    unsourced = [row for row in sorted(values)
                 if not SOURCE.search(comments.get(row, ""))]
    assert unsourced == []


def test_gpu_ndp_launch_is_the_direct_mmio_offload():
    assert COMPARATORS["gpu_ndp"]["launch_ns"] == (
        offload.timeline("cxl_io_dr", 0).overhead_ns)
