"""Virtual memory for NDP kernels: page tables, on-chip TLBs, DRAM-TLB.

The host issues physical addresses over CXL.mem, but NDP kernels use
virtual addresses (§III-H).  Each NDP unit has small I/D TLBs; misses go to
the **DRAM-TLB** — a hashed table in device DRAM whose entry location is
computed from (ASID, VPN), so every NDP unit shares it and a miss costs one
DRAM access instead of a µs-scale ATS round trip to the host.  Entries are
16 B, i.e. 0.4 % overhead for 4 KB pages.

The :class:`PageTable` holds the actual translations (maintained by the
host driver in a real system); the DRAM-TLB caches them with a deterministic
hashed-placement model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import TranslationFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
DRAM_TLB_ENTRY_BYTES = 16
ATS_LATENCY_NS = 1_000.0  # host page-walk via PCIe ATS (§II-B)


@dataclass(frozen=True)
class Translation:
    vpn: int
    ppn: int
    writable: bool = True


class PageTable:
    """Per-ASID forward page table (vpn -> ppn).

    ``on_change`` (if given) fires whenever an *existing* translation is
    replaced or removed — the events that can invalidate addresses someone
    already translated.  Adding a fresh vpn is not a change in that sense,
    so allocations never fire it; the device uses the callback to version
    its translations for the execution trace cache.
    """

    def __init__(self, asid: int, on_change=None) -> None:
        self.asid = asid
        self._map: dict[int, Translation] = {}
        self._on_change = on_change

    def map_page(self, vpn: int, ppn: int, writable: bool = True) -> None:
        previous = self._map.get(vpn)
        self._map[vpn] = Translation(vpn=vpn, ppn=ppn, writable=writable)
        if (previous is not None
                and (previous.ppn != ppn or previous.writable != writable)
                and self._on_change is not None):
            self._on_change()

    def map_range(self, vaddr: int, paddr: int, size: int,
                  writable: bool = True) -> None:
        """Map a contiguous range (both addresses must be page aligned)."""
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise TranslationFault(self.asid, vaddr)
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        for i in range(pages):
            self.map_page((vaddr >> PAGE_SHIFT) + i, (paddr >> PAGE_SHIFT) + i,
                          writable)

    def map_identity(self, vaddr: int, size: int) -> None:
        self.map_range(vaddr & ~(PAGE_SIZE - 1), vaddr & ~(PAGE_SIZE - 1),
                       size + (vaddr % PAGE_SIZE))

    def lookup(self, vpn: int) -> Translation:
        entry = self._map.get(vpn)
        if entry is None:
            raise TranslationFault(self.asid, vpn << PAGE_SHIFT)
        return entry

    def unmap(self, vpn: int) -> bool:
        removed = self._map.pop(vpn, None) is not None
        if removed and self._on_change is not None:
            self._on_change()
        return removed

    def __len__(self) -> int:
        return len(self._map)


class TLB:
    """Fully-associative LRU TLB keyed by (asid, vpn)."""

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._entries: OrderedDict[tuple[int, int], Translation] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, asid: int, vpn: int) -> Translation | None:
        key = (asid, vpn)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def insert(self, asid: int, translation: Translation) -> None:
        key = (asid, translation.vpn)
        self._entries[key] = translation
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def shootdown(self, asid: int, vpn: int) -> bool:
        """Invalidate one mapping (ndpShootdownTlbEntry, Table II)."""
        return self._entries.pop((asid, vpn), None) is not None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DRAMTLB:
    """Hashed in-DRAM TLB shared by all NDP units of one device.

    ``lookup`` returns (translation, extra_dram_accesses): 1 access when the
    hashed entry holds the translation (the common, warmed-up case), or the
    entry is filled after an ATS walk (cold miss).  The caller charges the
    DRAM access / ATS latency.
    """

    def __init__(self, region_entries: int = 1 << 20) -> None:
        self.region_entries = region_entries
        self._entries: dict[int, tuple[int, int, Translation]] = {}
        self.hits = 0
        self.cold_misses = 0
        self.conflict_misses = 0

    def _slot(self, asid: int, vpn: int) -> int:
        h = (vpn * 0x9E3779B97F4A7C15 + asid * 0x2545F4914F6CDD1D)
        return (h ^ (h >> 23)) % self.region_entries

    @property
    def region_bytes(self) -> int:
        return self.region_entries * DRAM_TLB_ENTRY_BYTES

    def lookup(self, asid: int, vpn: int, page_table: PageTable) -> tuple[Translation, bool]:
        """Return (translation, was_cold_miss); fill the entry if needed."""
        slot = self._slot(asid, vpn)
        entry = self._entries.get(slot)
        if entry is not None and entry[0] == asid and entry[1] == vpn:
            self.hits += 1
            return entry[2], False
        translation = page_table.lookup(vpn)
        if entry is None:
            self.cold_misses += 1
        else:
            self.conflict_misses += 1
        self._entries[slot] = (asid, vpn, translation)
        return translation, True

    def shootdown(self, asid: int, vpn: int) -> bool:
        slot = self._slot(asid, vpn)
        entry = self._entries.get(slot)
        if entry is not None and entry[0] == asid and entry[1] == vpn:
            del self._entries[slot]
            return True
        return False

    def warm_range(self, asid: int, vaddr: int, size: int,
                   page_table: PageTable) -> int:
        """Pre-fill entries for a range (the paper assumes a warmed DRAM-TLB
        for CXL-resident data, §IV-A).  Returns entries written."""
        first = vaddr >> PAGE_SHIFT
        last = (vaddr + max(size, 1) - 1) >> PAGE_SHIFT
        count = 0
        for vpn in range(first, last + 1):
            translation = page_table.lookup(vpn)
            self._entries[self._slot(asid, vpn)] = (asid, vpn, translation)
            count += 1
        return count
