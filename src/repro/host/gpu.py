"""GPU model: host baseline (passive CXL memory) and GPU-NDP variants.

In place of the paper's Accel-Sim runs, this models the effects its GPU
results hinge on:

* **warp-granularity FGMT** on each SM: 4 warp schedulers issue one
  instruction per warp per cycle; a warp's instructions serialize;
* **threadblock-granularity resource allocation**: an SM's warp slots,
  registers and shared memory are claimed per TB and released only when
  the *whole* TB finishes — the inter-warp-divergence waste of §III-D (A2)
  and Fig 6a;
* **memory divergence**: each warp memory instruction touches a
  workload-derived number of 32 B sectors (intra-warp divergence, A4);
* **shared-memory scope**: per-TB private scratch requires per-TB flushes
  to global memory (Fig 6b's traffic amplification for HISTO);
* the **CXL link bottleneck** when data lives in passive CXL memory, vs.
  internal DRAM bandwidth for GPU-NDP.

Workload modules provide a :class:`GPUKernelSpec` whose ``warp_profile``
callback is computed from the *actual generated data* (e.g. CSR row lengths
drive per-warp work skew for PGRANK), so divergence effects are not
hand-tuned constants.  The host GPU's launch overhead and the GPU-NDP
clock are the ``config.COMPARATORS`` rows ``gpu`` and ``gpu_ndp``; GPU-NDP
launches through the Fig 5 offload its row names
(:func:`~repro.host.offload.timeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.config import COMPARATORS, GPUConfig, SystemConfig
from repro.mem.dram import DRAMModel
from repro.cxl.link import CXLLink
from repro.cxl.protocol import CXLPacket, PacketType
from repro.host.offload import timeline
from repro.sim.engine import IssueServer, Simulator
from repro.sim.stats import IntervalSampler, StatsRegistry

SECTOR = 32
#: Threads per warp of every workload's kernel: the host GPU's.
WARP_SIZE = GPUConfig().warp_size
#: Warps per thread block of every workload's kernel (128 threads).
WARPS_PER_TB = 128 // WARP_SIZE


@dataclass
class WarpProfile:
    """Synthetic instruction stream of one warp.

    ``mlp`` is the warp's memory-level parallelism: how many of its memory
    instructions can be in flight at once (independent streaming loads
    pipeline through the scoreboard; address-dependent chains cannot).
    """

    instructions: int
    mem_ops: list[tuple[int, bool]]   # (sectors touched, is_write)
    active_lane_ratio: float = 1.0
    mlp: int = 1


@dataclass
class GPUKernelSpec:
    """What a workload tells the GPU model to run."""

    name: str
    total_warps: int
    warps_per_tb: int
    warp_profile: Callable[[int], WarpProfile]
    regs_per_thread: int = 32
    shared_mem_per_tb: int = 0
    #: extra global traffic when a TB retires (e.g. merging its private
    #: shared-memory histogram into global bins), in bytes
    tb_flush_bytes: int = 0

    @property
    def total_tbs(self) -> int:
        return (self.total_warps + self.warps_per_tb - 1) // self.warps_per_tb


class GPUMemorySystem:
    """Memory path for GPU warps: optional CXL link + a DRAM model."""

    def __init__(self, dram: DRAMModel, link: CXLLink | None = None) -> None:
        self.dram = dram
        self.link = link
        self._cursor = 0

    def access(self, now_ns: float, sectors: int, is_write: bool) -> float:
        """One warp memory instruction touching ``sectors`` 32 B sectors."""
        size = sectors * SECTOR
        if size <= 0:
            return now_ns
        if self.link is None:
            return self.dram.access(self._next_addr(size), size, now_ns,
                                    is_write)
        # Passive CXL memory: request over the link, DRAM on the device,
        # data back over the link.
        if is_write:
            packet = CXLPacket(PacketType.MEM_WR, 0, size, data=b"")
            arrival = self.link.send_to_device(now_ns, packet)
            self.dram.access(self._next_addr(size), size, arrival, True)
            return now_ns + 1.0      # posted write
        request = CXLPacket(PacketType.MEM_RD, 0, 16)
        arrival = self.link.send_to_device(now_ns, request)
        data_ready = self.dram.access(self._next_addr(size), size, arrival,
                                      False)
        response = CXLPacket(PacketType.MEM_RD_RESP, 0, size, data=b"")
        # approximate wire occupancy without materializing payloads
        return self.link.send_to_host(data_ready, response)

    def _next_addr(self, size: int) -> int:
        """Streaming address generator: walks the space so the banked DRAM
        model sees realistic row locality."""
        addr = self._cursor
        self._cursor = (addr + size) % (1 << 34)
        return addr


@dataclass
class _Warp:
    profile: WarpProfile
    tb_id: int
    ready_ns: float
    mem_index: int = 0
    instr_remaining: int = 0
    outstanding: list = None  # completion times of in-flight loads

    def __post_init__(self) -> None:
        self.instr_remaining = self.profile.instructions
        self.outstanding = []


class _TBState:
    def __init__(self, tb_id: int, warps: int) -> None:
        self.tb_id = tb_id
        self.warps_outstanding = warps


class StreamingMultiprocessor:
    """One SM running warps with TB-granularity slot allocation."""

    def __init__(self, index: int, config: GPUConfig, sim: Simulator,
                 memsys: GPUMemorySystem, stats: StatsRegistry) -> None:
        self.index = index
        self.config = config
        self.sim = sim
        self.memsys = memsys
        self.stats = stats
        period = config.clock.period_ns
        self.period_ns = period
        self.scheduler = IssueServer(width=config.issue_width, period_ns=period)
        self.warps_active = 0
        self.tbs_active = 0
        self.shared_mem_used = 0
        self.regs_used = 0
        self.sampler = IntervalSampler()

    # -- resource accounting -------------------------------------------------

    def can_host_tb(self, spec: GPUKernelSpec) -> bool:
        regs_needed = (spec.regs_per_thread * 4
                       * spec.warps_per_tb * self.config.warp_size)
        return (
            self.warps_active + spec.warps_per_tb <= self.config.max_warps_per_sm
            and self.tbs_active + 1 <= self.config.max_threadblocks_per_sm
            and self.shared_mem_used + spec.shared_mem_per_tb
            <= self.config.shared_mem_bytes_per_sm
            and self.regs_used + regs_needed <= self.config.regfile_bytes_per_sm
        )

    def admit_tb(self, spec: GPUKernelSpec, warps: int, now_ns: float) -> None:
        self.warps_active += warps
        self.tbs_active += 1
        self.shared_mem_used += spec.shared_mem_per_tb
        self.regs_used += (spec.regs_per_thread * 4 * warps
                           * self.config.warp_size)
        self.sample(now_ns)

    def retire_tb(self, spec: GPUKernelSpec, warps: int, now_ns: float) -> None:
        self.warps_active -= warps
        self.tbs_active -= 1
        self.shared_mem_used -= spec.shared_mem_per_tb
        self.regs_used -= (spec.regs_per_thread * 4 * warps
                           * self.config.warp_size)
        self.sample(now_ns)

    def sample(self, now_ns: float) -> None:
        self.sampler.record(now_ns,
                            self.warps_active / self.config.max_warps_per_sm)

    # -- warp execution ------------------------------------------------------

    def issue_chunk(self, ready_ns: float, instructions: int) -> float:
        """Issue ``instructions`` serial instructions of one warp."""
        if instructions <= 0:
            return ready_ns
        start = max(ready_ns, self.scheduler.next_free(ready_ns))
        for _ in range(instructions):
            self.scheduler.issue(start)
        self.stats.add("gpu.instructions", instructions)
        return start + instructions * self.period_ns


@dataclass
class GPUKernelResult:
    spec: GPUKernelSpec
    launch_overhead_ns: float
    start_ns: float = 0.0
    complete_ns: float = 0.0


class GPUDevice:
    """A GPU (or GPU-NDP block): SMs + memory system + TB dispatcher."""

    def __init__(self, sim: Simulator, config: GPUConfig,
                 memsys: GPUMemorySystem,
                 stats: StatsRegistry | None = None, *,
                 launch_overhead_ns: float) -> None:
        self.sim = sim
        self.config = config
        self.memsys = memsys
        self.stats = stats if stats is not None else StatsRegistry()
        self.launch_overhead_ns = launch_overhead_ns
        self.sms = [
            StreamingMultiprocessor(i, config, sim, memsys, self.stats)
            for i in range(config.num_sms)
        ]

    # ------------------------------------------------------------------

    def launch(self, spec: GPUKernelSpec, at_ns: float = 0.0,
               on_complete: Callable[[GPUKernelResult], None] | None = None,
               ) -> GPUKernelResult:
        """Dispatch all TBs of a kernel; completion via the simulator."""
        result = GPUKernelResult(spec=spec,
                                 launch_overhead_ns=self.launch_overhead_ns)
        start = at_ns + self.launch_overhead_ns
        result.start_ns = start
        state = _KernelRun(self, spec, result, on_complete)
        self.sim.schedule_at(start, partial(state.fill_all, start))
        return result


class _KernelRun:
    """Dispatch bookkeeping for one GPU kernel."""

    def __init__(self, device: GPUDevice, spec: GPUKernelSpec,
                 result: GPUKernelResult,
                 on_complete: Callable[[GPUKernelResult], None] | None) -> None:
        self.device = device
        self.spec = spec
        self.result = result
        self.on_complete = on_complete
        self.next_tb = 0
        self.warps_outstanding = 0
        self.tbs_outstanding = 0
        self.complete_ns = 0.0

    # -- TB dispatch -------------------------------------------------------

    def fill_all(self, now_ns: float) -> None:
        for sm in self.device.sms:
            self.fill_sm(sm, now_ns)

    def fill_sm(self, sm: StreamingMultiprocessor, now_ns: float) -> None:
        spec = self.spec
        while self.next_tb < spec.total_tbs and sm.can_host_tb(spec):
            tb_id = self.next_tb
            self.next_tb += 1
            first_warp = tb_id * spec.warps_per_tb
            warps = min(spec.warps_per_tb, spec.total_warps - first_warp)
            sm.admit_tb(spec, warps, now_ns)
            tb = _TBState(tb_id, warps)
            self.tbs_outstanding += 1
            for w in range(warps):
                profile = spec.warp_profile(first_warp + w)
                warp = _Warp(profile=profile, tb_id=tb_id, ready_ns=now_ns)
                self.warps_outstanding += 1
                self.device.sim.schedule_at(
                    now_ns, partial(self.run_warp, warp, sm, tb)
                )

    # -- warp advance ---------------------------------------------------------

    def run_warp(self, warp: _Warp, sm: StreamingMultiprocessor,
                 tb: _TBState) -> None:
        profile = warp.profile
        mem_ops = profile.mem_ops
        remaining_mem = len(mem_ops) - warp.mem_index
        if remaining_mem > 0:
            chunk = warp.instr_remaining // (remaining_mem + 1)
        else:
            chunk = warp.instr_remaining
        t = sm.issue_chunk(warp.ready_ns, chunk)
        warp.instr_remaining -= chunk

        if remaining_mem > 0:
            sectors, is_write = mem_ops[warp.mem_index]
            warp.mem_index += 1
            done = sm.memsys.access(t, sectors, is_write)
            sm.stats.add("gpu.mem_bytes", sectors * SECTOR)
            if is_write:
                # posted write: continue immediately
                warp.ready_ns = t + sm.period_ns
            else:
                warp.outstanding.append(done)
                if len(warp.outstanding) >= max(profile.mlp, 1):
                    # scoreboard full: stall until the oldest load returns
                    warp.ready_ns = warp.outstanding.pop(0)
                else:
                    warp.ready_ns = t + sm.period_ns
            warp.ready_ns = max(warp.ready_ns, self.device.sim.now)
            self.device.sim.schedule_at(
                warp.ready_ns, partial(self.run_warp, warp, sm, tb)
            )
            return

        # drain outstanding loads and tail instructions, retire the warp
        if warp.outstanding:
            t = max(t, max(warp.outstanding))
            warp.outstanding.clear()
        t = sm.issue_chunk(t, warp.instr_remaining)
        warp.instr_remaining = 0
        self.finish_warp(sm, tb, t)

    def finish_warp(self, sm: StreamingMultiprocessor, tb: _TBState,
                    now_ns: float) -> None:
        self.warps_outstanding -= 1
        tb.warps_outstanding -= 1
        now = max(now_ns, self.device.sim.now)
        if tb.warps_outstanding == 0:
            if self.spec.tb_flush_bytes:
                sm.memsys.access(now, self.spec.tb_flush_bytes // SECTOR, True)
                sm.stats.add("gpu.tb_flush_bytes", self.spec.tb_flush_bytes)
            warps = min(self.spec.warps_per_tb,
                        self.spec.total_warps - tb.tb_id * self.spec.warps_per_tb)
            sm.retire_tb(self.spec, warps, now)
            self.tbs_outstanding -= 1
            self.fill_sm(sm, now)
        self.complete_ns = max(self.complete_ns, now_ns)
        if self.warps_outstanding == 0 and self.next_tb >= self.spec.total_tbs:
            self.result.complete_ns = self.complete_ns
            if self.on_complete is not None:
                self.on_complete(self.result)


# ---------------------------------------------------------------------------
# factory helpers for the named configurations of §IV-A
# ---------------------------------------------------------------------------

def make_gpu_baseline(sim: Simulator, system: SystemConfig,
                      stats: StatsRegistry | None = None) -> GPUDevice:
    """Host GPU with workload data in passive CXL memory."""
    stats = stats if stats is not None else StatsRegistry()
    dram = DRAMModel(system.cxl_dram, stats, "gpubase_dram")
    # a longer load-to-use is the link's (``SystemConfig.with_ltu``)
    link = CXLLink(system.cxl, stats, "gpubase_cxl")
    memsys = GPUMemorySystem(dram, link)
    return GPUDevice(sim, system.gpu, memsys, stats,
                     launch_overhead_ns=COMPARATORS["gpu"]["launch_ns"])


def make_gpu_ndp(sim: Simulator, system: SystemConfig, num_sms: float,
                 stats: StatsRegistry | None = None,
                 freq_ghz: float | None = None) -> GPUDevice:
    """GPU-NDP: SMs inside the CXL device on internal LPDDR5 (§IV-A);
    ``freq_ghz`` as :func:`~repro.config.gpu_ndp_config` takes it."""
    from repro.config import gpu_ndp_config

    stats = stats if stats is not None else StatsRegistry()
    config = gpu_ndp_config(num_sms, freq_ghz)
    dram = DRAMModel(system.cxl_dram, stats, "gpundp_dram")
    memsys = GPUMemorySystem(dram, link=None)
    launch = timeline(COMPARATORS["gpu_ndp"]["launch"], 0.0)
    return GPUDevice(sim, config, memsys, stats,
                     launch_overhead_ns=launch.overhead_ns)
