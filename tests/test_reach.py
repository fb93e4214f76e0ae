"""tools/reach.py: which defs a consumer's run reaches, which constants,
defaulted parameters and imports no file uses, on a toy package."""

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
