"""M2func packet filter (§III-B).

The filter sits at the CXL memory's input port and compares every incoming
CXL.mem request address against per-process entries of 64-bit base, 64-bit
bound and 16-bit ASID — 18 bytes per entry, so 1024 processes fit in 18 KB
of SRAM.  A hit reroutes the request to the NDP controller as an M2func
call; a miss lets it through as a normal memory access.

Entries are inserted through the CXL.io path once per process at
initialization time (the driver call); after that, CXL.io is never needed
again — that asymmetry is the core latency win of M2func.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError

#: Storage cost per filter entry: 64-bit base + 64-bit bound + 16-bit ASID.
ENTRY_BYTES = 18

#: Regions the table holds (one per registered process).
MAX_ENTRIES = 1024


@dataclass(frozen=True)
class FilterEntry:
    """One process's M2func region registration."""

    asid: int
    base: int
    bound: int  # exclusive upper bound

    def __post_init__(self) -> None:
        if not 0 <= self.asid < (1 << 16):
            raise ProtocolError(f"ASID {self.asid:#x} does not fit in 16 bits")
        if self.bound <= self.base:
            raise ProtocolError(
                f"empty M2func region [{self.base:#x}, {self.bound:#x})"
            )

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.bound


class PacketFilter:
    """Range-match table mapping request addresses to M2func regions."""

    def __init__(self) -> None:
        self._entries: dict[int, FilterEntry] = {}

    # ------------------------------------------------------------------

    def insert(self, asid: int, base: int, bound: int) -> FilterEntry:
        """Register a process's M2func region (privileged, via CXL.io)."""
        if len(self._entries) >= MAX_ENTRIES and asid not in self._entries:
            raise ProtocolError(f"packet filter full ({MAX_ENTRIES} entries)")
        entry = FilterEntry(asid=asid, base=base, bound=bound)
        for other in self._entries.values():
            if other.asid != asid and not (
                bound <= other.base or base >= other.bound
            ):
                raise ProtocolError(
                    f"region [{base:#x}, {bound:#x}) overlaps ASID "
                    f"{other.asid:#x}'s region"
                )
        self._entries[asid] = entry
        return entry

    # ------------------------------------------------------------------

    def match(self, addr: int) -> FilterEntry | None:
        """Return the matching entry, or None for a normal memory access."""
        for entry in self._entries.values():
            if entry.contains(addr):
                return entry
        return None
