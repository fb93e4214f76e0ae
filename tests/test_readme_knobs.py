"""Doc-drift guards: the README "Settings" table states the defaults the
code declares, ``REPRO_TRACE`` is the only ``REPRO_*`` name the code
mentions, and ``repro.obs.tracer`` is the only module that reads the
environment."""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.cluster import ClusterRuntime, make_cluster_platform
from repro.config import ClusterConfig
from repro.ndp.device import M2NDPDevice
from repro.serve import ServingEngine
from repro.serve.batcher import BatchPolicy
from repro.workloads.base import make_platform

ROOT = Path(__file__).resolve().parent.parent


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def _field(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


def _settings_rows() -> dict[str, str]:
    """First cell -> default cell of each row of the README table."""
    text = (ROOT / "README.md").read_text()
    block = text.partition("\n## Settings\n")[2].partition("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in block.splitlines() if line.startswith("| `")]
    return {cells[0]: cells[1] for cells in rows}


def test_knobs_table_matches_the_code():
    backends = {_default(f, "backend") for f in (
        M2NDPDevice, make_platform, make_cluster_platform, ClusterRuntime)}
    assert len(backends) == 1
    runtime = ClusterRuntime(cluster=ClusterConfig(num_devices=1))
    declared = {
        "`backend=`": backends.pop(),
        "`ClusterConfig.scheduler`": _field(ClusterConfig, "scheduler"),
        "`ClusterConfig.partitions`": _field(ClusterConfig, "partitions"),
        "`ServingEngine(scheduler=)`": _default(ServingEngine, "scheduler"),
        "`BatchPolicy.max_batch`": _field(BatchPolicy, "max_batch"),
        "`BatchPolicy.max_wait_ns`": _field(BatchPolicy, "max_wait_ns"),
        "`ClusterRuntime.launch_timeout_ns`": runtime.launch_timeout_ns,
        "`ServingEngine(monitoring=)`": _default(ServingEngine, "monitoring"),
    }
    rows = _settings_rows()
    assert len(rows) == len(declared)
    for key, value in declared.items():
        [cell] = [cell for first, cell in rows.items()
                  if first.startswith(key)]
        assert cell == f"`{value!r}`", key


def test_every_repro_name_in_the_code_is_a_declared_knob():
    mentioned = set()
    for tree in ("src/repro", "benchmarks", "examples", "tools"):
        for path in (ROOT / tree).rglob("*.py"):
            mentioned |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert mentioned == {"REPRO_TRACE"}


def test_only_knobs_reads_the_environment():
    readers = [str(path.relative_to(ROOT))
               for path in (ROOT / "src/repro").rglob("*.py")
               if re.search(r"os\.(environ|getenv)", path.read_text())]
    assert readers == ["src/repro/obs/tracer.py"]
