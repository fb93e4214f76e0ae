"""Result-table helpers shared by experiments and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.stats import geometric_mean


@dataclass
class SpeedupRow:
    """One workload's speedups across configurations."""

    workload: str
    baseline_ns: float
    config_ns: dict[str, float] = field(default_factory=dict)

    def speedup(self, config: str) -> float:
        return self.baseline_ns / self.config_ns[config]

    def speedups(self) -> dict[str, float]:
        return {name: self.speedup(name) for name in self.config_ns}


@dataclass
class SpeedupTable:
    """A figure's worth of speedup rows with GMEAN summary."""

    title: str
    rows: list[SpeedupRow] = field(default_factory=list)

    def add(self, row: SpeedupRow) -> None:
        self.rows.append(row)

    def configs(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for name in row.config_ns:
                if name not in names:
                    names.append(name)
        return names

    def gmean(self, config: str) -> float:
        values = [row.speedup(config) for row in self.rows
                  if config in row.config_ns]
        return geometric_mean(values)
