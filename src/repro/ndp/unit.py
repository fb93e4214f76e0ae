"""The NDP unit: sub-cores, scratchpad, L1D, TLBs and its memory path.

An NDP unit (Fig 7) owns four sub-cores, a 128 KB scratchpad/L1D, and
I/D TLBs.  It provides two views of memory:

* :class:`UnitMemory` — the *functional* interface handed to the ISA
  executor: routes scratchpad-window addresses to the unit's scratchpad and
  everything else through the page table to the device's physical memory.

* :meth:`NDPUnit.timed_access` — the *timing* path: scratchpad latency, TLB
  / DRAM-TLB translation cost, write-through L1, the memory-side L2 and the
  banked DRAM model, plus HDM back-invalidation when the host holds a dirty
  copy.  Stores are posted (non-blocking past L1) but still charge L2/DRAM
  bandwidth; loads block their µthread until data returns — other µthreads
  keep issuing, which is how FGMT hides the latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import NDPConfig
from repro.errors import MemoryError_
from repro.isa.executor import MemAccess
from repro.mem.cache import SectorCache
from repro.mem.scratchpad import Scratchpad
from repro.ndp.occupancy import UnitOccupancy
from repro.ndp.subcore import SubCore
from repro.ndp.tlb import ATS_LATENCY_NS, PAGE_SHIFT, TLB
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ndp.device import DevicePartition

#: On-chip crossbar hop between an NDP unit and the memory-side L2 (§III-E).
CROSSBAR_NS = 2.0

#: Extra cycle for the L2's atomic ALU on global atomics.
ATOMIC_OP_NS = 0.5


class UnitMemory:
    """Functional memory view for µthreads of one kernel on one unit."""

    def __init__(self, unit: "NDPUnit", asid: int) -> None:
        self.unit = unit
        self.asid = asid
        device = unit.device
        self._physical = device.physical
        self._page_table = device.page_table(asid)
        self._spad = unit.scratchpad

    def _translate(self, vaddr: int) -> int:
        translation = self._page_table.lookup(vaddr >> PAGE_SHIFT)
        return (translation.ppn << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1))

    def load(self, vaddr: int, size: int) -> bytes:
        if self._spad.contains(vaddr):
            return self._spad.read(vaddr, size)
        return self._physical.read_bytes(self._translate(vaddr), size)

    def store(self, vaddr: int, data: bytes) -> None:
        if self._spad.contains(vaddr):
            self._spad.write(vaddr, data)
        else:
            self._physical.write_bytes(self._translate(vaddr), data)

    def amo(self, op: str, vaddr: int, operand, size: int, is_float: bool):
        if self._spad.contains(vaddr):
            return self._spad.amo(op, vaddr, operand, size, is_float)
        return self.unit.device.global_amo(
            op, self._translate(vaddr), operand, size, is_float
        )


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
        self.device = device
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

    # ------------------------------------------------------------------

    def memory_for(self, asid: int) -> UnitMemory:
        memory = self._memories.get(asid)
        if memory is None:
            memory = self._memories[asid] = UnitMemory(self, asid)
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
            device = self.device
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

    def timed_access(self, access: MemAccess, issue_ns: float, asid: int) -> float:
        """Charge the full memory-system latency of one access."""
        if self._spad_base <= access.vaddr < self._spad_end:
            self.stats.add("ndp.spad_traffic_bytes", access.size)
            return issue_ns + self._spad_latency

        paddr, ready = self._translate_timed(access.vaddr, asid, issue_ns)
        self.stats.add("ndp.global_traffic_bytes", access.size)
        self.stats.add("ndp.global_accesses")

        if access.is_amo:
            # Global atomics execute at the memory-side L2 (§III-E/F).
            return self.device.l2_dram_access(
                paddr, access.size, ready + CROSSBAR_NS, is_write=True,
                partition=self.partition,
            ) + ATOMIC_OP_NS

        l1_result = self.l1d.access(paddr, access.size, access.is_write)
        l1_done = ready + self._l1_hit_ns
        if access.is_write:
            # Write-through, posted: charge L2/DRAM bandwidth in the
            # background, let the µthread continue after L1 accepts it.
            for sector_addr, sector_size in l1_result.missing_sectors:
                self.device.l2_dram_access(
                    sector_addr, sector_size, l1_done + CROSSBAR_NS,
                    is_write=True, partition=self.partition,
                )
            return l1_done

        if l1_result.full_hit:
            return l1_done
        completion = l1_done
        for sector_addr, sector_size in l1_result.missing_sectors:
            done = self.device.l2_dram_access(
                sector_addr, sector_size, l1_done + CROSSBAR_NS,
                is_write=False, partition=self.partition,
            )
            completion = max(completion, done + CROSSBAR_NS)
        return completion

    def timed_accesses(self, accesses: tuple[MemAccess, ...], issue_ns: float,
                       asid: int) -> float:
        """A µthread's memory instruction completes when all its element
        accesses complete (vector gathers issue one per element)."""
        if len(accesses) == 1:
            return self.timed_access(accesses[0], issue_ns, asid)
        completion = issue_ns
        element_issue = issue_ns
        for access in accesses:
            # the VLSU issues element accesses back to back
            done = self.timed_access(access, element_issue, asid)
            if done > completion:
                completion = done
            element_issue += self._period_ns
        return completion
