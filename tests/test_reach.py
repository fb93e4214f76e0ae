"""tools/reach.py: which defs a consumer's run reaches, which constants,
defaulted parameters, imports and dataclass fields no file uses, on a toy
package; and that its static lists on ``src/repro`` hold only the rows of
its survivor table."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

PACKAGE = '''\
import functools


def used():
    def inner():
        return 1
    return inner()


def unused():
    return 2


class Thing:
    def method(self):
        return 3

    def idle(self):
        return 4

    def __repr__(self):
        return "Thing"


@functools.lru_cache(maxsize=None)
def decorated():
    return 5


def kept():
    return 6
'''

CONSUMER = '''\
import sys
sys.path.insert(0, {root!r})
import mod
mod.used()
mod.Thing().method()
mod.decorated()
mod.kept()
'''


def _reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_defs_of_a_recorded_run(tmp_path):
    reach = _reach()
    root, records = tmp_path / "pkg", tmp_path / "records"
    root.mkdir()
    records.mkdir()
    (root / "mod.py").write_text(PACKAGE)
    consumer = tmp_path / "consumer.py"
    consumer.write_text(CONSUMER.format(root=str(root)))
    subprocess.run([sys.executable, str(TOOL), "--record", str(records),
                    "--", str(consumer)], check=True, timeout=60)

    found = reach.defs(root)
    # the nested def folds into ``used``; the decorated one starts at its
    # decorator, which is the line its code object reports
    assert "mod.py:used.inner" not in found
    assert found["mod.py:used"][3] == 4
    decorated = found["mod.py:decorated"]
    assert PACKAGE.splitlines()[decorated[1] - 1].startswith("@functools")

    keep = {"mod.py:kept": "branch: reached after all",
            "mod.py:gone": "cli: no such def"}
    unreached, stale = reach.audit(root, reach.calls(records), keep)
    assert unreached == {"mod.py:unused": 2, "mod.py:Thing.idle": 2}
    assert stale == {"mod.py:kept": "reached", "mod.py:gone": "gone"}


def test_a_keep_row_naming_no_def_exits_non_zero(capsys):
    reach = _reach()
    assert reach.verdict({"mod.py:kept": "reached"}, []) == 0
    assert reach.verdict({"mod.py:gone": "gone"}, []) == 1
    out = capsys.readouterr().out
    assert "stale KEEP row (reached): mod.py:kept" in out
    assert "FAILED: KEEP row names no def: mod.py:gone" in out


def test_a_failing_consumer_exits_non_zero(tmp_path):
    script = tmp_path / "fails.py"
    script.write_text("raise SystemExit(3)\n")
    done = subprocess.run([sys.executable, str(TOOL), "--record",
                           str(tmp_path), "--", str(script)], timeout=60)
    assert done.returncode == 3
    assert list(tmp_path.glob("*.txt"))     # the record is still written


def test_unreferenced_constants_of_a_tree(tmp_path):
    reach = _reach()
    package, consumer = tmp_path / "pkg", tmp_path / "consumer"
    package.mkdir()
    consumer.mkdir()
    (package / "mod.py").write_text(
        "USED = 1\nUNUSED = 2\nA, _PAIR = 3, 4\nTABLE: dict = {}\n"
        "lower = 5\n\n\ndef f():\n    INNER = 6\n    return USED + A\n")
    (consumer / "use.py").write_text("from pkg.mod import TABLE\n")
    assert reach.unreferenced_constants(package, [package, consumer]) == [
        "mod.py:UNUSED", "mod.py:_PAIR"]


def test_unpassed_parameters_of_a_tree(tmp_path):
    reach = _reach()
    package, consumer = tmp_path / "pkg", tmp_path / "consumer"
    package.mkdir()
    consumer.mkdir()
    (package / "mod.py").write_text(
        "def by_keyword(a, b=1, c=2):\n    return a\n\n\n"
        "def by_position(a, b=1, c=2):\n    return a\n\n\n"
        "def by_star(a, b=1):\n    return a\n\n\n"
        "class Thing:\n"
        "    def __init__(self, size=8, name=None):\n"
        "        self.size = size\n\n"
        "    def hook(self, when=0.0):\n"
        "        return when\n\n\n"
        "def driver(scale=1):\n    return scale\n")
    (consumer / "use.py").write_text(
        "from pkg.mod import Thing, by_keyword, by_position, by_star\n"
        "by_keyword(0, c=3)\n"
        "by_position(0, 1)\n"
        "by_star(0, **{'b': 2})\n"
        "Thing(16)\n"
        "alias = Thing().hook\n"
        "for make in (by_keyword,):\n"
        "    make(0, b=4)\n"
        "alias(1.0)\n")
    assert reach.unpassed_parameters(package, [consumer],
                                     exclude={"driver"}) == [
        "mod.py:by_position(c)", "mod.py:Thing.__init__(name)"]


def test_unused_imports_of_a_tree(tmp_path):
    reach = _reach()
    package, consumer = tmp_path / "pkg", tmp_path / "consumer"
    (package / "sub").mkdir(parents=True)
    consumer.mkdir()
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from dataclasses import dataclass, field\n"
        "from typing import TYPE_CHECKING\n"
        "from math import pi, tau, e\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n\n\n"
        "@dataclass\n"
        "class Thing:\n"
        "    where: Path\n\n\n"
        "def f():\n"
        "    import re\n"
        "    return os.sep\n")
    (package / "sub" / "__init__.py").write_text(
        "from pkg.mod import Thing, f\n"
        "from pkg.mod import dataclass\n"
        "__all__ = ['Thing']\n")
    # re-exports: one taken by a from-import, one through a module alias
    (consumer / "use.py").write_text(
        "from pkg.mod import pi\n"
        "from pkg import mod as m\n"
        "print(pi, m.tau)\n")
    assert reach.unused_imports(package, [package, consumer]) == [
        "mod.py:codec", "mod.py:field", "mod.py:e", "mod.py:re",
        "sub/__init__.py:f", "sub/__init__.py:dataclass"]


FIELDS = '''\
from dataclasses import dataclass, field, replace


@dataclass
class Spec:
    name: str
    by_position: int = 3
    only_tests: int = 1
    by_call: int = 2
    by_replace: int = 4
    by_write: float = 5.0
    rows: list = field(default_factory=list)

    def __post_init__(self):
        assert self.only_tests >= 0


@dataclass
class Other:
    idle: int = 0

    def total(self, spec):
        return spec.name + spec.by_call


def build():
    spec = Spec("s", 2, by_call=2)
    spec.by_write = 6.0
    return replace(spec, by_replace=7), Other().total(spec)
'''


def test_unset_fields_of_a_tree(tmp_path):
    reach = _reach()
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "mod.py").write_text(FIELDS)
    (package / "config.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Model:\n    width: int = 8\n")
    (tests / "test_mod.py").write_text(
        "from pkg.mod import Other, Spec\n"
        "Spec('t', only_tests=0)\nOther(idle=1)\n")
    # a field only a test sets is listed; one set by a call, by position,
    # by replace() or by an attribute write is not; a per-instance
    # container is state, and config.py is left to its reader tests
    assert reach.unset_fields(package, [package]) == [
        "mod.py:Spec.only_tests", "mod.py:Other.idle"]
    assert reach.unset_fields(package, [package, tests]) == []


def test_unread_fields_of_a_tree(tmp_path):
    reach = _reach()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(FIELDS)
    # ``by_call`` and ``name`` are read by another class; a check in the
    # class's own __post_init__ is no read
    assert reach.unread_fields(package, [package]) == [
        "mod.py:Spec.by_position", "mod.py:Spec.only_tests",
        "mod.py:Spec.by_replace", "mod.py:Spec.by_write", "mod.py:Spec.rows",
        "mod.py:Other.idle"]


def test_package_lists_are_the_survivors():
    """Every line of the static lists on ``src/repro`` has a `SURVIVORS`
    row, and every row still names a line: an option, field or import
    only a test uses goes, or gets a row with its reason."""
    reach = _reach()
    assert sorted(reach.static_lines()) == sorted(reach.SURVIVORS)
