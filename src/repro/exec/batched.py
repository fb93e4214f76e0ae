"""Trace-once / replay-many batched execution backend.

The paper's kernels launch thousands of *structurally identical* µthreads:
every body µthread runs the same code over a different stride-sized pool
slice, and one launch is bulk-synchronous (§III-E/G).  This backend
exploits that regularity with two vectorized walks over one lane-ISA
implementation (:class:`repro.isa.vectorops.LaneISA`):

* **Launch-uniform walk** (this module): registers become arrays over the
  whole launch (``x2`` is the vector ``[0, stride, 2*stride, ...]``) while
  launch-uniform values stay 0-d, each decoded instruction executes once
  for all µthreads, and control flow follows the (verified)
  launch-uniform branch outcomes.  Memory results are identical to the
  interpreter's — stores are buffered during the walk and committed only
  when it succeeds.

* **Masked SIMT walk** (:mod:`repro.exec.simt`): initializer/finalizer
  phases, atomics, indexed gathers/scatters, scratchpad state,
  µthread-divergent branches and sub-threshold launch sizes execute as
  per-lane numpy arrays under an active-mask stack with reconvergence at
  immediate post-dominators, deterministic lane-ordered AMO grouping and
  per-unit scratchpad shadows.  Launches no wider than the device run on
  the point engine (:mod:`repro.exec.point`) instead.

* **Timing** is replayed analytically from the recorded dynamic trace: the
  per-FU instruction counts bound per-sub-core issue throughput, a
  per-thread latency estimate bounds the wave depth, and the launch's
  sector-unique global address stream is paced through the device's *real*
  memory-side L2 and banked-DRAM virtual-time models via the bulk charge
  APIs (``SectorCache.access_batch``, ``DRAMModel.access_batch``,
  ``BandwidthServer.charge_batch``), so bandwidth saturation, row locality
  and HDM back-invalidation still come from the existing servers.  Launch
  runtime is a roofline ``max(issue throughput, memory system, latency x
  waves)`` rather than an event-by-event FGMT schedule; it tracks the
  interpreter closely but is not bit-identical.

* **Repeats are nearly free**: every traced launch is recorded in the
  cross-launch :mod:`~repro.exec.trace_cache` keyed by (kernel code hash,
  pool region, stride, offset bias, ASID, argument bytes).  Uniform
  launches cache their trace aggregates; SIMT launches additionally cache
  the recorded *mask schedule*, verified lane-for-lane on every replay.

Engine choice is a function of the launch's shape only (sections, op
classes, µthread count — see ``BatchedBackend._classify``); there is no
switch that reroutes a shape to a different engine.

Automatic fallback
------------------

``register_execution`` falls back to the inherited interpreter path (per
launch, counted in ``exec.batched_fallbacks`` and attributed under
``exec.fallback_reason.<class>``) only when neither walk can reproduce
the interpreter's bytes: translation faults, read-after-write through
memory (a load overlapping a buffered store, or cross-lane races the
SIMT hazard detector refuses to order), order-sensitive atomic
contention, trace-cap blowouts, and unsupported instructions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exec.base import register_backend
from repro.exec.interpreter import InterpreterBackend
from repro.exec.point import attempt_point
from repro.exec.simt import (
    MAX_TRACE_STEPS,
    LaunchFallback,
    LaunchTail,
    SimtPlan,
    Translator,
    merge_streams,
    step_sectors,
)
from repro.exec.trace_cache import (
    CachedStep,
    SimtTraceEntry,
    StaleTrace,
    TraceCache,
    TraceEntry,
    trace_key,
)
from repro.isa import vectorops as vo
from repro.isa.encoding import FUnit, Instruction, OpClass
from repro.isa.vector import vlmax
from repro.isa.vectorops import UnsupportedVectorOp
from repro.ndp.generator import (
    ARG_SLOT_BYTES,
    SPAWN_LATENCY_NS,
    KernelExecution,
)
from repro.obs import tracer as obs_tracer
from repro.ndp.tlb import PAGE_SHIFT
from repro.ndp.unit import CROSSBAR_NS

#: Launches smaller than this skip the launch-uniform walk: tracing cannot
#: be amortized and latency effects dominate short launches, which the
#: masked and point engines handle.
MIN_BATCH_UTHREADS = 64

_ZERO_X = np.zeros((), dtype=np.int64)
_ZERO_F = np.zeros((), dtype=np.float64)

#: Op classes the launch-uniform walk never attempts (structural routing).
_UNBATCHABLE = {
    OpClass.AMO: "atomic",
    OpClass.VAMO: "atomic",
    OpClass.VGATHER: "gather",
    OpClass.VSCATTER: "gather",
}

#: Uniform-walk fallback classes the SIMT engine can absorb.
_RETRY_SIMT_SLUGS = {"divergent", "scratchpad", "vconfig"}

_Fallback = LaunchFallback


# ---------------------------------------------------------------------------
# buffered store log
# ---------------------------------------------------------------------------


class _StoreLog:
    """Stores buffered during the walk, committed only on success."""

    def __init__(self) -> None:
        self._entries: list[tuple[np.ndarray, np.ndarray]] = []
        self._bounds: list[tuple[int, int]] = []

    def log(self, paddrs: np.ndarray, data: np.ndarray) -> None:
        self._entries.append((paddrs, data))
        self._bounds.append(
            (int(paddrs.min()), int(paddrs.max()) + data.shape[-1])
        )

    def overlaps(self, lo: int, hi: int) -> bool:
        return any(e_lo < hi and lo < e_hi for e_lo, e_hi in self._bounds)

    def commit(self, physical) -> None:
        for paddrs, data in self._entries:
            physical.scatter_rows(paddrs, data)


# ---------------------------------------------------------------------------
# vectorized launch-uniform functional walk
# ---------------------------------------------------------------------------


class _Done(Exception):
    """Internal control-flow signal: the walk reached ``ret``."""


class _BatchReplay(vo.LaneISA):
    """Vectorized lockstep execution of one launch's body µthreads.

    Registers keep the launch-uniform representation the walk's speed
    rests on — a value every µthread agrees on stays 0-d (``(vl,)`` for
    vectors) and only per-µthread values are ``(n,)`` / ``(n, vl)`` — so
    ``_lanes`` is ``()`` and the inherited
    :class:`~repro.isa.vectorops.LaneISA` executors never widen a
    uniform operand.

    With a cached :class:`TraceEntry` the walk becomes a *replay*: the
    functional numpy execution still runs in full (memory contents may
    have changed since the trace), but every memory step's freshly
    computed address vector is verified against the recorded one and the
    recorded translation reused — any divergence raises
    :class:`StaleTrace` so the caller can retrace from scratch.  Either
    way ``entry`` holds the launch's timing profile once ``run`` returns.
    """

    engine = "batched"
    entry_type = TraceEntry

    def __init__(self, device, execution: KernelExecution,
                 entry: TraceEntry | None = None) -> None:
        instance = execution.instance
        self.device = device
        self.execution = execution
        self.n = instance.num_body_uthreads
        self.program = instance.kernel.program.bodies[0]
        self.trace: list[Instruction] = []
        self.steps: list[CachedStep] = []
        self.log = _StoreLog()
        self.translator = Translator(device.page_table(instance.asid))
        self.entry = entry
        self._mem_i = 0
        self._executed = 0
        spad = device.units[execution.unit_base].scratchpad
        self._spad = spad
        self._spad_lo = spad.base_vaddr
        self._spad_hi = spad.base_vaddr + spad.size_bytes
        # Scratchpad contents are per unit; only the argument block is
        # guaranteed identical everywhere (the controller writes it to all
        # units).  The walk may read nothing else from the scratchpad.
        self._args_lo = execution.args_vaddr
        self._args_hi = execution.args_vaddr + ARG_SLOT_BYTES

        idx = np.arange(self.n, dtype=np.int64)
        stride = np.int64(instance.uthread_stride)
        self.xr: list[np.ndarray] = [_ZERO_X] * 32
        self.xr[1] = np.int64(instance.pool_base) + idx * stride
        self.xr[2] = np.int64(instance.offset_bias) + idx * stride
        self.xr[3] = np.asarray(execution.args_vaddr, dtype=np.int64)
        self.fr: list[np.ndarray] = [_ZERO_F] * 32
        self.vr: list[np.ndarray | None] = [None] * 32
        self.vl = -1                                  # -1 = VLMAX sentinel
        self.sew = 64

    # -- register plumbing (the walk is maskless: ``m`` is always None) ----

    def _wx(self, idx: int, val, m=None) -> None:
        if idx:
            self.xr[idx] = np.asarray(val).astype(np.int64)

    def _wf(self, idx: int, val, m=None) -> None:
        self.fr[idx] = np.asarray(val, dtype=np.float64)

    def _wv(self, idx: int, val: np.ndarray, m=None) -> None:
        self.vr[idx] = val

    def _cur_vl(self, m=None) -> int:
        return self.vl

    def _cur_sew(self, m=None) -> int:
        return self.sew

    def _uniform_int(self, arr: np.ndarray, what: str,
                     slug: str = "divergent") -> int:
        a = np.asarray(arr)
        if a.ndim == 0:
            return int(a)
        first = a.flat[0]
        if not np.all(a == first):
            raise _Fallback(f"µthread-divergent {what}", slug)
        return int(first)

    # -- memory -----------------------------------------------------------

    def _classify(self, addr: np.ndarray) -> bool:
        """True when the access vector targets the scratchpad window."""
        a = np.atleast_1d(addr)
        in_spad = (a >= self._spad_lo) & (a < self._spad_hi)
        if in_spad.all():
            return True
        if in_spad.any():
            raise _Fallback("mixed scratchpad/global access vector",
                            "scratchpad")
        return False

    def _next_cached_step(self, is_spad: bool, size: int,
                          is_write: bool) -> CachedStep:
        steps = self.entry.steps
        if self._mem_i >= len(steps):
            raise StaleTrace("more memory steps than the cached trace")
        step = steps[self._mem_i]
        self._mem_i += 1
        if (step.is_spad != is_spad or step.size != size
                or step.is_write != is_write):
            raise StaleTrace("memory step shape diverged from cached trace")
        return step

    def _load(self, addr, size: int) -> np.ndarray:
        """Load ``size`` bytes per µthread; returns (..., size) uint8."""
        addr = np.asarray(addr, dtype=np.int64)
        if self._classify(addr):
            lo = int(addr.min()) if addr.ndim else int(addr)
            hi = (int(addr.max()) if addr.ndim else int(addr)) + size
            if lo < self._args_lo or hi > self._args_hi:
                # outside the argument block: per-unit state (unit 0's copy
                # is not representative), so hand the launch back
                raise _Fallback("scratchpad load outside the argument block",
                                "scratchpad")
            if self.entry is not None:
                self._next_cached_step(True, size, False)
            else:
                self.steps.append(CachedStep(True, size, False))
            # stat-free view: a mid-walk fallback must leave no counters
            # behind (the interpreter re-run charges them itself)
            view = self._spad.view()
            offs = addr - self._spad_lo
            if addr.ndim == 0:
                return view[int(offs):int(offs) + size].copy()
            return view[offs[:, None] + np.arange(size)]
        if self.entry is not None:
            step = self._next_cached_step(False, size, False)
            if not np.array_equal(addr, step.vaddrs):
                raise StaleTrace("load addresses diverged from cached trace")
            paddrs = step.paddrs
        else:
            paddrs = self.translator.translate(addr)
            lo = int(paddrs.min()) if paddrs.ndim else int(paddrs)
            hi = (int(paddrs.max()) if paddrs.ndim else int(paddrs)) + size
            if self.log.overlaps(lo, hi):
                raise _Fallback(
                    "load overlaps a buffered store (RAW via memory)", "raw")
            self.steps.append(CachedStep(False, size, False,
                                         vaddrs=addr, paddrs=paddrs))
        return self.device.physical.gather_rows(paddrs, size)

    def _store(self, addr, data: np.ndarray) -> None:
        """Buffer a store of (..., size) uint8 rows at per-µthread addrs."""
        addr = np.asarray(addr, dtype=np.int64)
        if self._classify(addr):
            raise _Fallback("scratchpad store in kernel body", "scratchpad")
        size = data.shape[-1]
        if self.entry is not None:
            step = self._next_cached_step(False, size, True)
            if not np.array_equal(addr, step.vaddrs):
                raise StaleTrace("store addresses diverged from cached trace")
            paddrs = step.paddrs
        else:
            paddrs = np.broadcast_to(
                np.atleast_1d(self.translator.translate(addr)), (self.n,)
            )
            self.steps.append(CachedStep(False, size, True,
                                         vaddrs=addr, paddrs=paddrs))
        rows = np.broadcast_to(
            data if data.ndim == 2 else data[None, :], (self.n, size)
        )
        self.log.log(paddrs, np.ascontiguousarray(rows))

    def commit(self) -> None:
        self.log.commit(self.device.physical)

    # -- main walk --------------------------------------------------------

    def run(self) -> "_BatchReplay":
        instructions = self.program.instructions
        count = len(instructions)
        pc = 0
        record = self.entry is None
        with np.errstate(all="ignore"):
            try:
                while pc < count:
                    if self._executed >= MAX_TRACE_STEPS:
                        raise _Fallback("trace exceeds step cap", "cap")
                    inst = instructions[pc]
                    self._executed += 1
                    if record:
                        self.trace.append(inst)
                    pc = self._step(inst, pc)
            except _Done:
                pass
            except UnsupportedVectorOp as exc:
                raise _Fallback(str(exc)) from None
        if record:
            self.entry = self._build_entry()
        elif (self._executed != self.entry.trace_len
                or self._mem_i != len(self.entry.steps)):
            raise StaleTrace("control flow diverged from cached trace")
        return self

    def _build_entry(self) -> TraceEntry:
        """Derive the reusable launch profile from the completed walk."""
        sector_bytes = self.device.config.l2.sector_bytes
        fu_counts: dict[FUnit, int] = {}
        latency_cycles = 0
        for inst in self.trace:
            fu_counts[inst.unit] = fu_counts.get(inst.unit, 0) + 1
            latency_cycles += inst.latency_cycles
        streams: list[tuple[np.ndarray, bool]] = []
        for step in self.steps:
            if not step.is_spad:
                sectors = step_sectors(step.paddrs, step.size, sector_bytes)
                step.sector_count = len(sectors)
                streams.append((sectors, step.is_write))
        merged_addrs, merged_writes = merge_streams(streams)
        page_count = int(
            np.unique(merged_addrs >> np.int64(PAGE_SHIFT)).size
        ) if merged_addrs.size else 0
        return TraceEntry(
            translation_version=self.device.translation_version,
            trace_len=len(self.trace),
            latency_cycles=latency_cycles,
            fu_counts=fu_counts,
            steps=self.steps,
            merged_addrs=merged_addrs,
            merged_writes=merged_writes,
            page_count=page_count,
        )

    def _step(self, inst: Instruction, pc: int) -> int:
        op = inst.op_class
        if op is OpClass.ALU:
            self._exec_alu(inst, None)
        elif op is OpClass.VALU_OP:
            self._exec_valu(inst, None)
        elif op is OpClass.BRANCH:
            return self._exec_branch(inst, pc)
        elif op is OpClass.LOAD:
            self._exec_load(inst)
        elif op is OpClass.STORE:
            self._exec_store(inst)
        elif op is OpClass.VLOAD:
            self._exec_vload(inst)
        elif op is OpClass.VSTORE:
            self._exec_vstore(inst)
        elif op is OpClass.VRED:
            self._exec_vred(inst, None)
        elif op is OpClass.VSET:
            self._exec_vset(inst)
        elif op is OpClass.FENCE:
            pass
        elif op is OpClass.RET:
            raise _Done
        else:
            raise _Fallback(f"unsupported op class {op.value}")
        return pc + 1

    # -- scalar -----------------------------------------------------------

    def _exec_branch(self, inst: Instruction, pc: int) -> int:
        if inst.mnemonic == "j":
            return inst.target
        taken = self._uniform_int(self._branch_cond(inst), "branch")
        return inst.target if taken else pc + 1

    def _exec_load(self, inst: Instruction) -> None:
        addr = np.asarray(self.xr[inst.rs1]) + np.int64(inst.imm)
        m = inst.mnemonic
        if m in vo.FP_LOADS:
            size = vo.FP_LOADS[m]
            bits = vo.from_le_bytes(self._load(addr, size))
            self._wf(inst.rd, vo.bits_to_float(bits, size * 8))
            return
        size = vo.LOAD_SIGNED.get(m) or vo.LOAD_UNSIGNED[m]
        value = vo.from_le_bytes(self._load(addr, size))
        if m in vo.LOAD_SIGNED:
            self._wx(inst.rd, vo.sign_extend(value, size * 8))
        else:
            self._wx(inst.rd, value.astype(np.int64))

    def _exec_store(self, inst: Instruction) -> None:
        addr = np.asarray(self.xr[inst.rs1]) + np.int64(inst.imm)
        m = inst.mnemonic
        if m in vo.FP_STORES:
            size = vo.FP_STORES[m]
            bits = vo.float_to_bits(self.fr[inst.rs2], size * 8)
        else:
            size = vo.STORES[m]
            bits = np.asarray(self.xr[inst.rs2]).astype(np.uint64)
        self._store(addr, vo.to_le_bytes(bits, size))

    # -- vector -----------------------------------------------------------

    def _exec_vset(self, inst: Instruction) -> None:
        sew = inst.imm
        requested = self._uniform_int(np.asarray(self.xr[inst.rs1]),
                                      "vsetvli AVL", "vconfig")
        if requested < 0:
            raise _Fallback(f"vsetvli with negative AVL {requested}")
        vl = min(requested, vlmax(sew))
        self.sew = sew
        self.vl = vl
        self._wx(inst.rd, np.int64(vl))

    def _exec_vload(self, inst: Instruction) -> None:
        sew = inst.size * 8
        vl = self._eff_vl(None, sew)
        if vl == 0:
            self.vr[inst.rd] = np.zeros((0,), dtype=np.uint64)
            return
        addr = np.asarray(self.xr[inst.rs1]) + np.int64(inst.imm)
        raw = self._load(addr, vl * inst.size)
        self.vr[inst.rd] = vo.from_le_bytes(
            raw.reshape(raw.shape[:-1] + (vl, inst.size))
        )

    def _exec_vstore(self, inst: Instruction) -> None:
        sew = inst.size * 8
        vl = self._eff_vl(None, sew)
        if vl == 0:
            return
        addr = np.asarray(self.xr[inst.rs1]) + np.int64(inst.imm)
        values = vo.to_pattern(self._read_v(inst.rd, vl).astype(np.int64), sew)
        raw = vo.to_le_bytes(values, inst.size)
        self._store(addr, raw.reshape(raw.shape[:-2] + (vl * inst.size,)))

    # -- timing -----------------------------------------------------------

    def schedule(self, now_ns: float, cached: bool) -> None:
        """Charge the launch analytically and schedule its completion."""
        device = self.device
        cfg = device.config.ndp
        stats = device.stats
        execution = self.execution
        entry = self.entry
        n = self.n
        trace_len = entry.trace_len
        fu_counts = entry.fu_counts
        period = cfg.clock.period_ns
        start = max(now_ns, device.sim.now) + SPAWN_LATENCY_NS
        tail = LaunchTail(device, execution, "exec.batched", start,
                          uthreads=n, trace_cache="hit" if cached else "miss")
        num_units = execution.num_units

        # --- issue-throughput bound (per sub-core, FGMT hides latency) ---
        per_unit = math.ceil(n / num_units)
        per_subcore = per_unit / cfg.subcores_per_unit
        fu_width = tail.fu_width
        compute_ns = trace_len * per_subcore * period / cfg.issue_width
        for fu, fu_count in fu_counts.items():
            compute_ns = max(
                compute_ns, fu_count * per_subcore * period / fu_width.get(fu, 1)
            )
        # Occupy the sub-cores' dispatch/FU issue servers with the whole
        # launch in one bulk charge, so interpreter-path launches running
        # concurrently observe this launch's issue pressure.
        dispatch_ops = math.ceil(trace_len * per_subcore)
        fu_ops = [(fu, math.ceil(c * per_subcore))
                  for fu, c in fu_counts.items()]
        for unit in tail.units:
            for subcore in unit.subcores:
                subcore.dispatch.service_batch(start, dispatch_ops)
                subcore.instructions_issued += dispatch_ops
                for fu, ops in fu_ops:
                    subcore.units[fu].service_batch(start, ops)

        # --- traffic stats + latency floor (serial thread latency x
        # occupancy waves) from the launch's step profile -----------------
        dram_lat = execution.partition.dram.typical_random_latency_ns()
        l1_hit = device.config.ndp.l1d.hit_latency_ns
        l2_hit = device.config.l2.hit_latency_ns
        thread_lat = entry.latency_cycles * period
        for step in entry.steps:
            if step.is_spad:
                stats.add("ndp.spad_traffic_bytes", step.size * n)
                thread_lat += tail.units[0].scratchpad.latency_ns
                continue
            stats.add("ndp.global_traffic_bytes", step.size * n)
            stats.add("ndp.global_accesses", n)
            if step.is_write:
                # posted write-through: the thread continues after L1
                thread_lat += l1_hit
            elif step.sector_count * 8 <= n:
                # many threads share these sectors (e.g. gemv's activation
                # vector): all but the first hit their unit's L1, so the
                # typical thread's critical path pays a hit, not DRAM
                thread_lat += l1_hit
            else:
                thread_lat += 2 * CROSSBAR_NS + l2_hit + dram_lat
        slots_per_unit = tail.slots_per_unit
        waves = math.ceil(per_unit / slots_per_unit)
        window = max(compute_ns, thread_lat * waves)

        # --- memory-system bound: sector stream through the real L2/DRAM -
        ratio = min(per_unit, slots_per_unit) / slots_per_unit
        completion = tail.pace(start, window, n, ratio, entry)
        tail.schedule(completion, n * trace_len, n)


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class BatchedBackend(InterpreterBackend):
    """Batched fast path with automatic per-launch engine routing.

    Launch execution is tiered by launch *shape*: the launch-uniform
    trace/replay walk for bulk branch-uniform launches, the masked SIMT
    walk (:mod:`repro.exec.simt`) or — for launches no wider than the
    device — the point engine (:mod:`repro.exec.point`) for every other
    class, and the inherited per-µthread interpreter for the residue
    (translation faults, RAW through memory) — attributed per class in
    ``exec.fallback_reason.<slug>`` counters.
    """

    name = "batched"

    def __init__(self, device) -> None:
        super().__init__(device)
        self.trace_cache = TraceCache()

    # ------------------------------------------------------------------

    def _classify(self, execution: KernelExecution) -> str | None:
        """Static routing: why the launch needs per-lane (masked or point)
        execution, or None when the launch-uniform walk may try it."""
        program = execution.instance.kernel.program
        if (program.initializer is not None or program.finalizer is not None
                or len(program.bodies) != 1):
            return "phases"
        for inst in program.bodies[0].instructions:
            slug = _UNBATCHABLE.get(inst.op_class)
            if slug is not None:
                return slug
        if execution.instance.num_body_uthreads < MIN_BATCH_UTHREADS:
            return "small"
        return None

    def register_execution(self, execution: KernelExecution,
                           now_ns: float) -> None:
        device = self.device
        why = self._classify(execution)
        key = trace_key(execution) if self.trace_cache.enabled else None
        failure: LaunchFallback | None = None
        if why is None:
            failure = self._attempt(_BatchReplay, execution, key, now_ns)
        if why is not None or (failure is not None
                               and failure.slug in _RETRY_SIMT_SLUGS):
            # Point tier: launches no wider than the device (one µthread
            # per unit) execute as a synchronous per-lane walk with
            # verified symbolic replay — the masked engine's per-launch
            # numpy setup costs more than such launches' entire work.
            if (why != "phases" and execution.instance.num_body_uthreads
                    <= execution.num_units):
                attempt_point(self, execution, now_ns)
                failure = None
            else:
                failure = self._attempt(SimtPlan, execution, key, now_ns)
        if failure is None:
            # Take ownership of every µthread: a concurrent interpreter
            # refill (e.g. from a fallback launch) must not re-execute
            # this launch.
            execution.consume_plan()
            self._active.append(execution)
            return

        device.stats.add("exec.batched_fallbacks")
        device.stats.add(f"exec.fallback_reason.{failure.slug}")
        if obs_tracer.ENABLED:
            obs_tracer.tracer_of(device.sim).instant(
                "exec.fallback", max(now_ns, device.sim.now),
                pid=device.trace_pid, reason=failure.slug,
                instance=execution.instance.instance_id)
        super().register_execution(execution, now_ns)

    # ------------------------------------------------------------------

    def _attempt(self, plan_cls, execution: KernelExecution, key,
                 now_ns: float) -> LaunchFallback | None:
        """One vectorized tier, for either walk (``plan_cls`` is
        :class:`_BatchReplay` or :class:`~repro.exec.simt.SimtPlan`).

        Cache lookup -> verified replay (a stale recording is invalidated
        and the launch retraced) -> store -> commit -> schedule; returns
        the fallback when the walk cannot run the launch.
        """
        device = self.device
        cache = self.trace_cache
        stats = device.stats
        entry = (cache.lookup(key, device.translation_version)
                 if cache.enabled else None)
        if not isinstance(entry, plan_cls.entry_type):
            if isinstance(entry, SimtTraceEntry):
                # this shape degraded to the masked walk on a prior launch
                return LaunchFallback("shape is cached by the masked walk",
                                      "divergent")
            entry = None
        plan = None
        if entry is not None:
            try:
                plan = plan_cls(device, execution, entry=entry).run()
            except (StaleTrace, LaunchFallback):
                # behaviour diverged from the recording (data-dependent
                # control flow, addressing or mask schedule): retrace
                cache.invalidate(key)
        cached = plan is not None
        if cached:
            stats.add("exec.trace_cache_hits")
            stats.add(f"exec.trace_cache_hits_{plan_cls.engine}")
        else:
            try:
                plan = plan_cls(device, execution).run()
            except LaunchFallback as exc:
                return exc
            if cache.enabled:
                stats.add("exec.trace_cache_misses")
                cache.store(key, plan.entry)
        plan.commit()
        stats.add(f"exec.{plan_cls.engine}_launches")
        plan.schedule(now_ns, cached)
        return None


register_backend(BatchedBackend.name, BatchedBackend)
