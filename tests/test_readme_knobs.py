"""Doc-drift guards: the README "Knobs" table is what ``repro.knobs``
generates, every ``REPRO_*`` name the code mentions is a declared knob,
and ``repro.knobs`` is the only module that reads the environment."""

import re
from pathlib import Path

from repro import knobs

ROOT = Path(__file__).resolve().parent.parent


def test_knobs_table_matches_the_code(tmp_path, capsys):
    readme = ROOT / "README.md"
    assert knobs.main(["--check", str(readme)]) == 0
    row = "| `REPRO_TRACE` | `0` or `1` (`0`) |"
    assert row in readme.read_text()
    edited = tmp_path / "README.md"
    edited.write_text(readme.read_text().replace(row, row.replace("(`0`)",
                                                                  "(`1`)")))
    assert knobs.main(["--check", str(edited)]) == 1
    assert "python -m repro.knobs" in capsys.readouterr().out


def test_every_repro_name_in_the_code_is_a_declared_knob():
    mentioned = set()
    for tree in ("src/repro", "benchmarks", "examples"):
        for path in (ROOT / tree).rglob("*.py"):
            mentioned |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert mentioned <= set(knobs.KNOBS)
    assert set(knobs.KNOBS) <= mentioned


def test_only_knobs_reads_the_environment():
    readers = [str(path.relative_to(ROOT))
               for path in (ROOT / "src/repro").rglob("*.py")
               if re.search(r"os\.(environ|getenv)", path.read_text())]
    assert readers == ["src/repro/knobs.py"]
