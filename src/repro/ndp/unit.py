"""The NDP unit: sub-cores, scratchpad, L1D, TLBs and its memory path.

An NDP unit (Fig 7) owns four sub-cores, a 128 KB scratchpad/L1D, and
I/D TLBs.  It provides two views of memory:

* :class:`UnitMemory` — the *functional* interface handed to the ISA
  executor, the point walk and the point replay: routes scratchpad-window
  addresses to the unit's scratchpad and everything else through the page
  table to the device's physical memory, in one flat scalar path (one
  ``dict.get`` to translate, one page slice to read or write).

* :meth:`NDPUnit.timed_access` — the *timing* path: scratchpad latency, TLB
  / DRAM-TLB translation cost (a DTLB hit inline), write-through L1, the
  memory-side L2 and the banked DRAM model, plus HDM back-invalidation when
  the host holds a dirty copy.  Stores are posted (non-blocking past L1)
  but still charge L2/DRAM bandwidth; loads block their µthread until data
  returns — other µthreads keep issuing, which is how FGMT hides the
  latency.
"""

from __future__ import annotations

import math
import struct
import weakref
from typing import TYPE_CHECKING

from repro.config import NDPConfig
from repro.isa.executor import MemAccess
from repro.mem.cache import SectorCache
from repro.mem.physical import _ZERO, PAGE_SIZE, PhysicalMemory
from repro.mem.scratchpad import Scratchpad, _apply_amo
from repro.ndp.occupancy import UnitOccupancy
from repro.ndp.subcore import SubCore
from repro.ndp.tlb import PAGE_SHIFT, TLB, PageTable
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ndp.device import DevicePartition

#: On-chip crossbar hop between an NDP unit and the memory-side L2 (§III-E).
CROSSBAR_NS = 2.0

#: Extra cycle for the L2's atomic ALU on global atomics.
ATOMIC_OP_NS = 0.5

_PAGE_MASK = PAGE_SIZE - 1

_AMO_INT = {4: struct.Struct("<i"), 8: struct.Struct("<q")}
_AMO_FLT = {4: struct.Struct("<f"), 8: struct.Struct("<d")}


class UnitMemory:
    """Functional memory view for µthreads of one kernel on one unit.

    One flat scalar path serves the interpreter's bursts, the point walk
    and the point replay's commits: the scratchpad window is a bounds
    test, the translation one ``dict.get`` on the page table's map, and
    an access that stays inside one page wholly below the capacity reads
    or writes that physical page directly.  A page-crossing access, the
    capacity's last partial page and an unmapped page go through
    :meth:`PageTable.lookup` and :class:`PhysicalMemory`, which raise
    as they always do.  The compiled point replay inlines the same load
    from ``page_map``, ``pages`` and ``page_limit``
    (:class:`repro.exec.point._FamilyCompiler`).
    """

    def __init__(self, physical: PhysicalMemory, page_table: PageTable,
                 spad: Scratchpad, stats: StatsRegistry, asid: int) -> None:
        self.asid = asid
        self._physical = physical
        self._page_table = page_table
        self._spad = spad
        self._stats = stats
        self.spad_lo = spad.base_vaddr
        self.spad_hi = spad.base_vaddr + spad.size_bytes
        #: vpn -> Translation and ppn -> page: the tables themselves (a
        #: translation's 4 KiB page is :class:`PhysicalMemory`'s page)
        self.page_map = page_table._map
        self.pages = physical._pages
        #: every page below this index lies whole inside the capacity
        capacity = physical.capacity_bytes
        self.page_limit = (math.inf if capacity is None
                           else capacity // PAGE_SIZE)

    def load(self, vaddr: int, size: int) -> bytes:
        if self.spad_lo <= vaddr < self.spad_hi:
            return self._spad.read(vaddr, size)
        vpn = vaddr >> PAGE_SHIFT       # unmapped: the lookup raises
        ppn = (self.page_map.get(vpn) or self._page_table.lookup(vpn)).ppn
        offset = vaddr & _PAGE_MASK
        if offset + size <= PAGE_SIZE and 0 <= ppn < self.page_limit:
            return self.pages.get(ppn, _ZERO)[offset:offset + size].tobytes()
        return self._physical.read_bytes((ppn << PAGE_SHIFT) | offset, size)

    def store(self, vaddr: int, data: bytes) -> None:
        if self.spad_lo <= vaddr < self.spad_hi:
            self._spad.write(vaddr, data)
            return
        vpn = vaddr >> PAGE_SHIFT
        ppn = (self.page_map.get(vpn) or self._page_table.lookup(vpn)).ppn
        offset = vaddr & _PAGE_MASK
        size = len(data)
        if 0 < size <= PAGE_SIZE - offset and 0 <= ppn < self.page_limit:
            page = self.pages.get(ppn)
            if page is None:
                page = self._physical._page(ppn)
            page[offset:offset + size] = data
        else:             # an empty write creates no page: PhysicalMemory
            self._physical.write_bytes((ppn << PAGE_SHIFT) | offset, data)

    def amo(self, op: str, vaddr: int, operand, size: int, is_float: bool):
        if self.spad_lo <= vaddr < self.spad_hi:
            return self._spad.amo(op, vaddr, operand, size, is_float)
        # a global atomic: read-modify-write on HDM, done at the L2
        packer = (_AMO_FLT if is_float else _AMO_INT)[size]
        old = packer.unpack(self.load(vaddr, size))[0]
        new = _apply_amo(op, old, operand)
        if not is_float:
            bits = 8 * size
            new &= (1 << bits) - 1
            new -= (1 << bits) if new >= (1 << (bits - 1)) else 0
        self.store(vaddr, packer.pack(new))
        self._stats.add("ndp.global_atomics")
        return old


class NDPUnit:
    """One of the device's 32 NDP units."""

    def __init__(
        self,
        index: int,
        config: NDPConfig,
        device,
        stats: StatsRegistry,
        spawn_granularity: int = 1,
    ) -> None:
        self.index = index
        self.config = config
        # weak: the device owns its units; the hot path reaches L2/DRAM
        # through ``partition`` and only a DRAM-TLB walk needs the device
        self._device = weakref.ref(device)
        self.stats = stats
        self.subcores = [SubCore(device.issue_bank, index, s)
                         for s in range(config.subcores_per_unit)]
        self.occupancy = UnitOccupancy(
            num_subcores=config.subcores_per_unit,
            slots_per_subcore=config.uthread_slots_per_subcore,
            rf_bytes_per_subcore=config.regfile_bytes_per_subcore,
            spawn_granularity=spawn_granularity,
        )
        self.scratchpad = Scratchpad(
            config.scratchpad_bytes,
            latency_ns=config.l1d.hit_latency_ns,
            stats=stats,
            stats_prefix=f"unit{index}.spad",
            row=device.scratchpads[index],
        )
        self.l1d = SectorCache(
            config.l1d,
            stats=stats,
            stats_prefix=f"unit{index}.l1d",
            write_allocate=False,   # GPU-style write-through L1 (§III-F)
            write_back=False,
        )
        self.dtlb = TLB(config.dtlb_entries)
        self.itlb = TLB(config.itlb_entries)
        self._dtlb_entries = self.dtlb._entries
        #: The hardware partition this unit belongs to, bound by
        #: ``device.configure_partitions``: every global access goes
        #: through that partition's L2/DRAM.
        self.partition: DevicePartition
        self._memories: dict[int, UnitMemory] = {}
        # hot-path constants (avoid property/object churn per access)
        self._period_ns = config.clock.period_ns
        self._l1_hit_ns = config.l1d.hit_latency_ns
        self._spad_base = self.scratchpad.base_vaddr
        self._spad_end = self.scratchpad.base_vaddr + config.scratchpad_bytes
        self._spad_latency = self.scratchpad.latency_ns
        self._sector_bytes = config.l1d.sector_bytes

    # ------------------------------------------------------------------

    def memory_for(self, asid: int) -> UnitMemory:
        memory = self._memories.get(asid)
        if memory is None:
            device = self._device()
            memory = self._memories[asid] = UnitMemory(
                device.physical, device.page_table(asid), self.scratchpad,
                self.stats, asid)
        return memory

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------

    def _translate_timed(self, vaddr: int, asid: int, now_ns: float) -> tuple[int, float]:
        """Translate with TLB/DRAM-TLB timing; returns (paddr, ready_ns)."""
        vpn = vaddr >> PAGE_SHIFT
        entry = self.dtlb.lookup(asid, vpn)
        ready = now_ns
        if entry is None:
            device = self._device()
            translation, dram_access = device.dram_tlb.lookup(
                asid, vpn, device.page_table(asid)
            )
            if dram_access:
                ready = device.dram_tlb_timed_fetch(asid, vpn, ready)
            self.dtlb.insert(asid, translation)
            entry = translation
            self.stats.add("ndp.tlb_fill")
        paddr = (entry.ppn << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1))
        return paddr, ready

    def timed_access(self, vaddr: int, size: int, is_write: bool,
                     is_amo: bool, issue_ns: float, asid: int) -> float:
        """Charge the full memory-system latency of one access.

        Each sector the access covers is one :meth:`SectorCache.lookup`
        in the L1 and at most one one-sector
        :meth:`DevicePartition.l2_dram_access`; a scalar load, store or
        AMO covers one sector.
        """
        if self._spad_base <= vaddr < self._spad_end:
            self.stats.add("ndp.spad_traffic_bytes", size)
            return issue_ns + self._spad_latency

        # a DTLB hit inline (TLB.lookup's LRU move and count); a miss
        # walks the DRAM-TLB in _translate_timed
        key = (asid, vaddr >> PAGE_SHIFT)
        entry = self._dtlb_entries.get(key)
        if entry is not None:
            self._dtlb_entries.move_to_end(key)
            self.dtlb.hits += 1
            paddr = (entry.ppn << PAGE_SHIFT) | (vaddr & _PAGE_MASK)
            ready = issue_ns
        else:
            paddr, ready = self._translate_timed(vaddr, asid, issue_ns)
        self.stats.add("ndp.global_traffic_bytes", size)
        self.stats.add("ndp.global_accesses")
        partition = self.partition

        if is_amo:
            # Global atomics execute at the memory-side L2 (§III-E/F).
            return partition.l2_dram_access(
                paddr, size, ready + CROSSBAR_NS, is_write=True,
            ) + ATOMIC_OP_NS

        # the L1 is write-through and no-write-allocate: each sector is
        # its own lookup, then its own L2/DRAM charge on a write or a miss
        l1_done = ready + self._l1_hit_ns
        l1d = self.l1d
        sector = self._sector_bytes
        first = paddr - paddr % sector
        completion = l1_done
        for sector_addr in range(first, paddr + max(size, 1), sector):
            hit = l1d.lookup(sector_addr, is_write) is None
            if is_write:
                # posted: the write charges L2/DRAM bandwidth in the
                # background; the µthread continues once the L1 accepts it
                partition.l2_dram_access(sector_addr, sector,
                                         l1_done + CROSSBAR_NS, is_write=True)
            elif not hit:
                done = partition.l2_dram_access(
                    sector_addr, sector, l1_done + CROSSBAR_NS,
                    is_write=False,
                ) + CROSSBAR_NS
                if done > completion:
                    completion = done
        return completion

    def timed_accesses(self, accesses: tuple[MemAccess, ...], issue_ns: float,
                       asid: int) -> float:
        """A µthread's memory instruction completes when all its element
        accesses complete (vector gathers issue one per element)."""
        completion = issue_ns
        element_issue = issue_ns
        for access in accesses:
            # the VLSU issues element accesses back to back
            done = self.timed_access(access.vaddr, access.size,
                                     access.is_write, access.is_amo,
                                     element_issue, asid)
            if done > completion:
                completion = done
            element_issue += self._period_ns
        return completion
