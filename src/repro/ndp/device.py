"""CXL-M2NDP device: the memory expander with NDP capability (Fig 3).

Owns the physical memory (HDM), the banked LPDDR5 DRAM model, the
memory-side L2, the CXL link + packet filter, the NDP controller and the 32
NDP units.  Kernel launches are *executed* by a backend from
:mod:`repro.exec` (the ``backend`` constructor argument, default
``batched``): the batched engines or the per-instruction interpreter
they fall back to and are measured against.  The device itself only provides the shared
memory-system services and the host-facing CXL.mem entry points.

Every device is split into >= 1 hardware :class:`DevicePartition`
(:mod:`repro.cluster.partitions`): by default the one partition that is
the whole device, sharing the device's own L2/DRAM models.
"""

from __future__ import annotations

import mmap
from collections import deque
from dataclasses import replace as _dc_replace
from functools import partial

import numpy as np

from repro.config import SystemConfig
from repro.cxl.hdm import HDMCoherence
from repro.cxl.link import CXLLink
from repro.cxl.packet_filter import PacketFilter
from repro.cxl.protocol import CXLPacket, PacketType
from repro.errors import ProtocolError
from repro.exec.base import DEFAULT_BACKEND, make_backend
from repro.isa.assembler import KernelProgram
from repro.mem.dram import DRAMModel
from repro.mem.cache import SectorCache
from repro.mem.physical import PhysicalMemory
from repro.ndp.controller import NDPController, ReadResponse
from repro.ndp.generator import KernelExecution
from repro.ndp.subcore import IssueBank
from repro.ndp.tlb import DRAM_TLB_ENTRY_BYTES, DRAMTLB, PageTable
from repro.ndp.unit import NDPUnit
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Device-internal fixed overhead on the CXL request path (port + filter).
DEVICE_PORT_NS = 10.0


class DevicePartition:
    """One hardware partition's timing models and launch state on a device.

    On a device carved into several partitions each one owns its *own*
    memory-side L2 (sized to its set share) and its *own* banked DRAM
    model (its channel share), so a launch bound to one partition cannot
    evict another partition's cache lines or queue behind its DRAM
    accesses — timing isolation by construction rather than by masking
    inside shared structures.  The single partition of the one-partition
    map owns everything, so its models *are* the device's (``private`` is
    False): host packet traffic and NDP traffic share one cache.  The
    functional byte store stays device-wide: partitions are a
    bandwidth/capacity carve-up, not an address-space split.

    Every partition runs its own launch queue with its own
    ``max_concurrent_kernels`` budget, so a saturated (or killed)
    partition can never head-of-line-block another's launches.
    """

    def __init__(self, share, dram: DRAMModel, l2: SectorCache,
                 private: bool, coherence: HDMCoherence) -> None:
        self.share = share
        self.dram = dram
        self.l2 = l2
        self.coherence = coherence
        self._l2_hit_ns = l2.config.hit_latency_ns
        self._sector_bytes = l2.config.sector_bytes
        #: owns timing models (and ``partition.<name>.*`` counters) of its
        #: own rather than aliasing the device's
        self.private = private
        self.name = share.name
        self.index = share.index
        self.unit_base = share.unit_base
        self.num_units = share.num_units
        self.queue: deque = deque()     # KernelInstances waiting to start
        self.running = 0                # started, not yet completed

    def l2_dram_access(self, paddr: int, size: int, now_ns: float,
                       is_write: bool) -> float:
        """Timed access through this partition's L2 into its DRAM.

        Reads of lines the host may hold dirty first pay an HDM-DB
        back-invalidation round trip (Fig 13b); the BI blocks only the
        requesting µthread, so FGMT hides most of it.  A one-sector
        access (every NDP unit's) takes the flat path: one
        :meth:`SectorCache.lookup`, and on a miss the victim's writebacks,
        then the fill.  A wider one looks up every sector first, then
        charges all writebacks, then all fills.
        """
        l2, dram = self.l2, self.dram
        if not is_write and self.coherence.dirty_fraction > 0.0:
            now_ns = self.coherence.access(paddr, size, now_ns)
        done = now_ns + self._l2_hit_ns
        sector = self._sector_bytes
        first = paddr - paddr % sector
        if paddr + size <= first + sector:
            victims = l2.lookup(first, is_write)
            if victims is None:     # the write-back L2 absorbs a hit
                return done
            for victim in victims:
                dram.access(victim, sector, done, True)
            # every DRAM access ends after it arrives
            return dram.access(first, sector, done, is_write)
        result = l2.access(paddr, size, is_write)
        for wb_addr, wb_size in result.writebacks:
            dram.access(wb_addr, wb_size, done, is_write=True)
        completion = done
        for sector_addr, sector_size in result.missing_sectors:
            completion = max(
                completion,
                dram.access(sector_addr, sector_size, done, is_write),
            )
        return completion


class M2NDPDevice:
    """A CXL memory expander with M2NDP (controller + NDP units)."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig | None = None,
        spawn_granularity: int = 1,
        dirty_fraction: float = 0.0,
        queue_capacity: int = 4096,
        backend: str = DEFAULT_BACKEND,
        physical: PhysicalMemory | None = None,
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else SystemConfig()
        self.stats = StatsRegistry()

        # ``physical`` may be shared between devices: a multi-expander
        # cluster keeps one functional byte store for the whole logical
        # address space while every device retains its own *timing* models
        # (DRAM banks, L2, link) — see repro.cluster.runtime.
        self.physical = (physical if physical is not None
                         else PhysicalMemory(self.config.cxl_dram.capacity_bytes))
        self.dram = DRAMModel(self.config.cxl_dram, self.stats, "cxl_dram",
                              workspace=sim.workspace)
        self.l2 = SectorCache(self.config.l2, self.stats, "l2",
                              write_allocate=True, write_back=True,
                              workspace=sim.workspace)
        self.link = CXLLink(self.config.cxl, self.stats, "cxl")
        self.packet_filter = PacketFilter()
        self.coherence = HDMCoherence(self.link, dirty_fraction, self.stats)
        self.dram_tlb = DRAMTLB()
        self._page_tables: dict[int, PageTable] = {}
        #: bumped whenever any page table replaces or removes a live
        #: translation; the execution trace cache keys validity on it
        self.translation_version = 0
        self.code_registry: dict[int, KernelProgram] = {}
        #: Chrome-trace process id; single-device platforms default to 1
        #: (pid 0 is the host), ClusterRuntime renumbers to 1 + index.
        self.trace_pid = 1
        self.controller = NDPController(self, queue_capacity=queue_capacity)
        #: issue-stage virtual times of every unit's sub-cores, one array
        self.issue_bank = IssueBank(self.config.ndp)
        #: every unit's scratchpad bytes, one row each.  An anonymous
        #: mapping, not ``np.zeros``: numpy advises allocations of 4 MiB
        #: or more ``MADV_HUGEPAGE``, so under transparent huge pages a
        #: launch's few argument bytes per row would make 2 MiB pages
        #: resident.  Here only the 4 KiB pages a launch writes are.
        units = self.config.ndp.num_units
        row_bytes = self.config.ndp.scratchpad_bytes
        spad_map = mmap.mmap(-1, units * row_bytes)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            spad_map.madvise(mmap.MADV_NOHUGEPAGE)
        self.scratchpads = np.frombuffer(spad_map, np.uint8).reshape(
            units, row_bytes)
        self.units = [
            NDPUnit(i, self.config.ndp, self, self.stats, spawn_granularity)
            for i in range(self.config.ndp.num_units)
        ]
        self.backend = make_backend(backend, self)
        #: Hardware partitions, always >= 1: a device starts as the
        #: one-partition map and a cluster re-carves it at construction.
        self.partitions: list[DevicePartition]
        # lazy import: ``cluster`` is built on ``ndp``, not vice versa
        from repro.cluster.partitions import resolve_partitions
        self.configure_partitions(resolve_partitions(None, self.config))
        #: The whole-device partition host CXL.mem packets charge (its
        #: models are ``self.l2`` / ``self.dram``); a carved device keeps
        #: it beside its private partitions.
        self.host_partition = self.partitions[0]
        # DRAM-TLB region lives at the top of device memory.
        self._dram_tlb_base = (
            self.config.cxl_dram.capacity_bytes - self.dram_tlb.region_bytes
        )

    # ------------------------------------------------------------------
    # hardware partitioning
    # ------------------------------------------------------------------

    def configure_partitions(self, pmap) -> None:
        """Carve the device into the partitions of a resolved
        :class:`~repro.cluster.partitions.PartitionMap`.

        Must be called before traffic.  A map of several partitions gives
        each private L2 and DRAM timing models sized to its share; the
        one-partition map aliases the device's own.  Either way every NDP
        unit is tagged so its whole memory path charges its partition's
        models.
        """
        l2_cfg, dram_cfg = self.config.l2, self.config.cxl_dram
        private = len(pmap) > 1
        self.partitions = []
        for share in pmap:
            dram, l2 = self.dram, self.l2
            if private:
                dram = DRAMModel(
                    _dc_replace(dram_cfg, channels=share.channels),
                    self.stats, f"cxl_dram.{share.name}",
                    workspace=self.sim.workspace,
                )
                l2 = SectorCache(
                    _dc_replace(
                        l2_cfg,
                        size_bytes=share.l2_sets * l2_cfg.ways
                        * l2_cfg.line_bytes,
                    ),
                    self.stats, f"l2.{share.name}",
                    write_allocate=True, write_back=True,
                    workspace=self.sim.workspace,
                )
            part = DevicePartition(share, dram, l2, private, self.coherence)
            self.partitions.append(part)
            for u in share.units:
                self.units[u].partition = part

    # ------------------------------------------------------------------
    # memory-system services shared by the units
    # ------------------------------------------------------------------

    def page_table(self, asid: int) -> PageTable:
        table = self._page_tables.get(asid)
        if table is None:
            table = self._page_tables[asid] = PageTable(
                asid, on_change=self._bump_translation_version
            )
        return table

    def _bump_translation_version(self) -> None:
        self.translation_version += 1

    def install_code(self, code_loc: int, program: KernelProgram) -> None:
        """Place kernel code in HDM (we keep the decoded form alongside)."""
        self.code_registry[code_loc] = program

    def l2_dram_access_batch(self, stream, arrivals_ns,
                             partition: DevicePartition) -> float:
        """Bulk counterpart of :meth:`DevicePartition.l2_dram_access` for a
        sector stream (a :class:`~repro.mem.cache.SectorStream`, one
        arrival per access).

        One vectorized pass charges HDM back-invalidation (reads of
        host-dirty lines), the memory-side L2 and the banked DRAM for a
        whole launch's sector-unique address stream — O(stream) numpy work
        instead of one Python round trip per sector.  Returns the latest
        completion among hits and fills (evicted-line writebacks are
        charged but, as in the scalar path, never block the launch).
        """
        l2, dram = partition.l2, partition.dram
        sector_bytes = self.config.l2.sector_bytes
        sector_addrs, is_write = stream.addrs, stream.writes
        arrivals = np.asarray(arrivals_ns, dtype=np.float64)
        if not sector_addrs.size:
            return self.sim.now
        if self.coherence.dirty_fraction > 0.0:
            reads = ~is_write
            if reads.any():
                arrivals = arrivals.copy()
                arrivals[reads] = self.coherence.access_batch(
                    sector_addrs[reads], sector_bytes, arrivals[reads]
                )
        result = l2.access_batch(stream)
        n = sector_addrs.size
        work = self.sim.workspace
        # an access is done with the L2 hit latency after it arrives (the
        # latest one too: adding a constant keeps the order)
        hit_ns = self.config.l2.hit_latency_ns
        completion = float(arrivals.max()) + hit_ns
        hit, wb_idx = result.hit_mask, result.wb_idx
        n_fill = n - int(np.add.reduce(hit))
        n_wb = wb_idx.size
        if n_fill or n_wb:
            # one DRAM batch in stream order, as the scalar loop charges
            # it: the writebacks an access's fill evicts, then the fill.
            # Fill i lands after the fills before it and the writebacks
            # at or before it; every hit lands on the spare last slot
            m = n_fill + n_wb
            slot, wbs = work.take("charge.int", n, np.int64, rows=2)
            slot[...] = hit
            np.subtract(1, slot, out=slot)
            slot.cumsum(out=slot)
            np.subtract(slot, 1, out=slot)
            wb_slot = work.take("charge.wb_slot", n_wb, np.int64)
            if n_wb:
                # an evicting access is a fill: the fills before it, plus
                # its writeback's rank among those stable by access
                by_access, access, fills_before = work.take(
                    "charge.wb", n_wb, np.int64, rows=3)
                work.argsort(wb_idx, n, by_access)
                wb_idx.take(by_access, out=access, mode="clip")
                slot.take(access, out=fills_before, mode="clip")
                wb_slot[by_access] = np.add(fills_before, work.iota(n_wb),
                                            out=fills_before)
                wbs[...] = 0
                np.add.at(wbs, wb_idx, 1)
                np.add(slot, wbs.cumsum(out=wbs), out=slot)
            np.copyto(slot, m, where=hit)
            addrs = work.take("charge.addrs", m + 1, np.int64)
            times = work.take("charge.times", m + 1)
            writes, fills = work.take("charge.bool", m + 1, bool, rows=2)
            addrs[slot] = sector_addrs
            times[slot] = arrivals
            writes[slot] = is_write
            fills[slot] = True
            addrs[wb_slot] = result.wb_addrs
            times[wb_slot] = arrivals.take(wb_idx, mode="clip", out=work.take(
                "charge.wb_times", n_wb))
            writes[wb_slot] = True
            fills[wb_slot] = False
            times = np.add(times[:m], hit_ns, out=times[:m])
            finishes = dram.access_batch(addrs[:m], sector_bytes, times,
                                         writes[:m])
            if n_fill:
                completion = max(completion, float(finishes.max(
                    where=fills[:m], initial=-np.inf)))
        return completion

    def dram_tlb_timed_fetch(self, asid: int, vpn: int, now_ns: float) -> float:
        """One 16 B DRAM access at the hashed DRAM-TLB slot (§III-H)."""
        slot = self.dram_tlb._slot(asid, vpn)
        addr = self._dram_tlb_base + slot * DRAM_TLB_ENTRY_BYTES
        return self.dram.access(addr, DRAM_TLB_ENTRY_BYTES, now_ns,
                                is_write=False)

    # ------------------------------------------------------------------
    # host-facing CXL.mem entry points
    # ------------------------------------------------------------------

    def host_write(self, now_ns: float, addr: int, data: bytes) -> float:
        """A host CXL.mem write arrives; returns the host-visible ack time."""
        packet = CXLPacket(PacketType.MEM_WR, len(data), data=data)
        arrival = self.link.send_to_device(now_ns, packet)
        entry = self.packet_filter.match(addr)
        if entry is not None:
            self.controller.handle_write(entry, addr, data,
                                         arrival + DEVICE_PORT_NS)
        else:
            self.physical.write_bytes(addr, data)
            self.host_partition.l2_dram_access(
                addr, len(data), arrival + DEVICE_PORT_NS, is_write=True)
        ack = CXLPacket(PacketType.MEM_WR_ACK, 0)
        return self.link.send_to_host(arrival + DEVICE_PORT_NS, ack)

    def host_read(self, now_ns: float, addr: int, size: int,
                  callback) -> None:
        """A host CXL.mem read; ``callback(data, host_time)`` fires when the
        response reaches the host (possibly deferred for sync launches)."""
        packet = CXLPacket(PacketType.MEM_RD, size)
        arrival = self.link.send_to_device(now_ns, packet)
        entry = self.packet_filter.match(addr)
        if entry is not None:
            response = self.controller.handle_read(entry, addr, size,
                                                   arrival + DEVICE_PORT_NS)
            if response.ready_ns is None:
                self._defer_read(response, addr, size, callback)
            else:
                self._respond(response.data, response.ready_ns, addr, callback)
            return
        data = self.physical.read_bytes(addr, size)
        ready = self.host_partition.l2_dram_access(
            addr, size, arrival + DEVICE_PORT_NS, is_write=False)
        self._respond(data, ready, addr, callback)

    def _defer_read(self, response: ReadResponse, addr: int, size: int,
                    callback) -> None:
        def on_complete(when_ns: float) -> None:
            data = self.physical.read_bytes(addr, size)
            self._respond(data, when_ns + DEVICE_PORT_NS, addr, callback)

        if response.waiting_instance is None:
            raise ProtocolError(
                "deferred read response carries no waiting instance"
            )
        self.controller.add_completion_waiter(response.waiting_instance,
                                              on_complete)

    def _respond(self, data: bytes, ready_ns: float, addr: int,
                 callback) -> None:
        packet = CXLPacket(PacketType.MEM_RD_RESP, len(data), data=data)
        at_host = self.link.send_to_host(max(ready_ns, self.sim.now), packet)
        self.sim.schedule_at(at_host, partial(callback, data, at_host))

    # ------------------------------------------------------------------
    # µthread execution (delegated to the backend)
    # ------------------------------------------------------------------

    def register_execution(self, execution: KernelExecution,
                           now_ns: float) -> None:
        self.backend.register_execution(execution, now_ns)

    def unregister_execution(self, execution: KernelExecution) -> None:
        self.backend.unregister_execution(execution)
