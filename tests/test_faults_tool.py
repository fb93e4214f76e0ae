"""tools/faults.py: minor faults charged to the function on top of the
stack, on a toy that faults a known number of fresh pages."""

import importlib.util
import mmap
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "faults.py"
PAGES = 64


def _tool():
    spec = importlib.util.spec_from_file_location("faults", TOOL)
    faults = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(faults)
    return faults


def quiet() -> int:
    return sum(range(100))


def touch(pages: int) -> mmap.mmap:
    """Fault ``pages`` fresh anonymous pages in, one write each."""
    buf = mmap.mmap(-1, pages * mmap.PAGESIZE)
    for page in range(pages):
        buf[page * mmap.PAGESIZE] = 1
    return buf


def toy() -> mmap.mmap:
    quiet()
    return touch(PAGES)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts as Linux reports them")
def test_faults_are_charged_to_the_function_that_takes_them():
    charged, buf = _tool().attribute(toy)
    assert len(buf) == PAGES * mmap.PAGESIZE
    by_name = {label.rsplit("(", 1)[-1].rstrip(")"): faults
               for label, faults in charged.items()}
    assert by_name["touch"] >= PAGES, charged
    assert max(charged, key=charged.get).endswith("(touch)"), charged
    assert by_name.get("quiet", 0) + by_name.get("toy", 0) < PAGES // 4, \
        charged
