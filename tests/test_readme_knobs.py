"""Doc-drift guard: the README "Knobs" table lists exactly the
``REPRO_*`` environment variables the code mentions."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = r"REPRO_[A-Z0-9_]+"


def test_knobs_table_matches_the_code():
    in_code = set()
    for tree in ("src/repro", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            in_code |= set(re.findall(KNOB, path.read_text()))
    readme = (ROOT / "README.md").read_text()
    table = readme.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(rf"^\| `({KNOB})` \|", table, re.M))
    assert documented == in_code
