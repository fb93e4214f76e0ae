"""Energy model (Fig 15)."""

from repro.energy.model import EnergyBreakdown, EnergyModel

__all__ = ["EnergyBreakdown", "EnergyModel"]
