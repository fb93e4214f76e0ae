"""Workload plumbing shared by all eight evaluation workloads (Table V).

Provides the platform bundle (simulator + device + runtime), deterministic
RNG seeding, and the scale presets: tests run ``tiny``, benchmarks default
to ``small``, and ``paper`` matches Table V input sizes (hours of pure-
Python simulation — available, not default; FIDELITY.json is recorded at
``small``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig, default_system
from repro.exec.base import DEFAULT_BACKEND
from repro.host.api import M2NDPRuntime
from repro.ndp.device import M2NDPDevice
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

SEED = 0xC0FFEE


@dataclass
class Platform:
    """One simulated host + CXL-M2NDP device pair."""

    sim: Simulator
    device: M2NDPDevice
    runtime: M2NDPRuntime
    system: SystemConfig

    @property
    def stats(self) -> StatsRegistry:
        return self.device.stats


def make_platform(system: SystemConfig | None = None,
                  spawn_granularity: int = 1,
                  dirty_fraction: float = 0.0,
                  queue_capacity: int = 4096,
                  backend: str = DEFAULT_BACKEND) -> Platform:
    """Build a fresh simulator/device/runtime bundle.

    ``backend`` selects the µthread execution backend ("batched" or
    "interpreter", see :mod:`repro.exec`).
    """
    system = system if system is not None else default_system()
    sim = Simulator()
    device = M2NDPDevice(
        sim,
        system,
        spawn_granularity=spawn_granularity,
        dirty_fraction=dirty_fraction,
        queue_capacity=queue_capacity,
        backend=backend,
    )
    runtime = M2NDPRuntime(device)
    return Platform(sim=sim, device=device, runtime=runtime, system=system)


def rng(salt: int = 0) -> np.random.Generator:
    """Deterministic per-purpose random generator."""
    return np.random.default_rng(SEED + salt)


@dataclass(frozen=True)
class ScalePreset:
    """Input-size knobs; each workload reads the fields it cares about."""

    name: str
    elements: int            # flat array workloads (HISTO, reductions)
    rows: int                # OLAP table rows
    nodes: int               # graph workloads
    avg_degree: int
    kv_items: int
    kv_requests: int
    dlrm_rows: int
    dlrm_batch_cap: int
    llm_hidden: int
    llm_layers: int


SCALES: dict[str, ScalePreset] = {
    "tiny": ScalePreset(
        name="tiny", elements=1 << 12, rows=1 << 12, nodes=256, avg_degree=8,
        kv_items=512, kv_requests=200, dlrm_rows=1 << 10, dlrm_batch_cap=4,
        llm_hidden=64, llm_layers=2,
    ),
    "small": ScalePreset(
        name="small", elements=1 << 18, rows=1 << 16, nodes=4096,
        avg_degree=8, kv_items=4096, kv_requests=2000, dlrm_rows=1 << 13,
        dlrm_batch_cap=32, llm_hidden=128, llm_layers=2,
    ),
    "paper": ScalePreset(
        name="paper", elements=16 << 20, rows=6 << 20, nodes=299_067,
        avg_degree=7, kv_items=10 << 20, kv_requests=10_000,
        dlrm_rows=1 << 20, dlrm_batch_cap=256, llm_hidden=2560, llm_layers=32,
    ),
}


def scale(name: str = "small") -> ScalePreset:
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALES)}")
    return SCALES[name]


@dataclass
class NDPRunResult:
    """Outcome of one NDP workload run."""

    name: str
    runtime_ns: float
    correct: bool
    instance_count: int = 1
    instructions: int = 0
    uthreads: int = 0
    dram_bytes: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def dram_bandwidth(self) -> float:
        return self.dram_bytes / self.runtime_ns if self.runtime_ns else 0.0
