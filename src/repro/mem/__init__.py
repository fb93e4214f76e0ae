"""Memory substrate: physical store, address layout, DRAM timing, caches."""

from repro.mem.cache import AccessResult, SectorCache, SectorStream
from repro.mem.dram import DRAMModel
from repro.mem.layout import INTERLEAVE_GRANULE, AddressLayout
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.mem.scratchpad import SCRATCHPAD_VBASE, Scratchpad

__all__ = [
    "AccessResult",
    "AddressLayout",
    "DRAMModel",
    "INTERLEAVE_GRANULE",
    "PAGE_SIZE",
    "PhysicalMemory",
    "SCRATCHPAD_VBASE",
    "SectorCache",
    "SectorStream",
    "Scratchpad",
]
