"""Trace-once / replay-many batched execution backend.

The paper's kernels launch thousands of *structurally identical* µthreads:
every body µthread runs the same code over a different stride-sized pool
slice, and one launch is bulk-synchronous (§III-E/G).  This backend
exploits that regularity with two vectorized walks over one lane-ISA
implementation (:class:`repro.isa.vectorops.LaneISA`, loads and stores
included) and one memory-step record/verify/profile path
(:class:`repro.exec.trace_cache.StepLog`); a walk owns its registers, its
``_load``/``_store``, ``vset``, branches and its timing roofline:

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
  APIs (``SectorCache.access_batch``, ``DRAMModel.access_batch``), so
  bandwidth saturation, row locality and HDM back-invalidation still come
  from the existing servers.  Launch
  runtime is a roofline ``max(issue throughput, memory system, latency x
  waves)`` rather than an event-by-event FGMT schedule; it tracks the
  interpreter closely but is not bit-identical.

* **Repeats are nearly free**: every traced launch is recorded in the
  cross-launch :mod:`~repro.exec.trace_cache` keyed by (kernel code hash,
  pool region, stride, offset bias, ASID, argument bytes) as one
  ``TraceEntry`` of per-phase profiles; every memory step of a replay is
  verified against the recording — addresses on the uniform walk, plus
  lanes and scratchpad routing (the *mask schedule*) on the masked one.

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

from repro.exec.interpreter import InterpreterBackend
from repro.exec.point import attempt_point
from repro.exec.simt import (
    MAX_TRACE_STEPS,
    LaunchFallback,
    LaunchTail,
    SimtPlan,
    Translator,
)
from repro.exec.trace_cache import (
    PhaseProfile,
    StaleTrace,
    StepLog,
    TraceCache,
    TraceEntry,
    trace_key,
)
from repro.isa import vectorops as vo
from repro.isa.encoding import Instruction, OpClass
from repro.isa.vector import vlmax
from repro.isa.vectorops import UnsupportedVectorOp
from repro.ndp.generator import (
    ARG_SLOT_BYTES,
    SPAWN_LATENCY_NS,
    KernelExecution,
)
from repro.ndp.subcore import FU_COLUMN, ISSUE_COLUMNS
from repro.obs import tracer as obs_tracer
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


# ---------------------------------------------------------------------------
# vectorized launch-uniform functional walk
# ---------------------------------------------------------------------------


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
    have changed since the trace), but its :class:`StepLog` verifies
    every memory step's freshly computed address vector against the
    recorded one and hands back the recorded translation — any divergence
    raises :class:`StaleTrace` so the caller can retrace from scratch.
    Either way ``entry`` holds the launch's timing profile once ``run``
    returns.
    """

    engine = "batched"

    def __init__(self, device, execution: KernelExecution,
                 entry: TraceEntry | None = None) -> None:
        instance = execution.instance
        self.device = device
        self.execution = execution
        self.n = instance.num_body_uthreads
        self.program = instance.kernel.program.bodies[0]
        self._ops = [0] * ISSUE_COLUMNS     # instruction mix, per µthread
        self._lat_cycles = 0
        self.memlog = StepLog(
            None if entry is None else entry.profiles[0].steps)
        #: [lo, hi) physical span of each buffered store: no load may overlap
        self._store_spans: list[tuple[int, int]] = []
        self.translator = Translator(device.page_table(instance.asid))
        self.entry = entry
        self._executed = 0
        spad = device.units[execution.unit_base].scratchpad
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
            raise LaunchFallback(f"µthread-divergent {what}", slug)
        return int(first)

    # -- memory -----------------------------------------------------------

    def _classify(self, addr: np.ndarray) -> bool:
        """True when the access vector targets the scratchpad window."""
        a = np.atleast_1d(addr)
        in_spad = (a >= self._spad_lo) & (a < self._spad_hi)
        if in_spad.all():
            return True
        if in_spad.any():
            raise LaunchFallback("mixed scratchpad/global access vector",
                                 "scratchpad")
        return False

    def _load(self, lanes, addr, size: int) -> np.ndarray:
        """Load ``size`` bytes per µthread; returns (..., size) uint8."""
        addr = np.asarray(addr, dtype=np.int64)
        if self._classify(addr):
            if (int(addr.min()) < self._args_lo
                    or int(addr.max()) + size > self._args_hi):
                # outside the argument block: per-unit state (unit 0's copy
                # is not representative), so hand the launch back
                raise LaunchFallback(
                    "scratchpad load outside the argument block", "scratchpad")
            # the block's slot rotates per instance: addresses not compared
            self.memlog.step("load", size, None, spad=True)
            # stat-free view: a mid-walk fallback must leave no counters
            # behind (the interpreter re-run charges them itself)
            view = self.device.scratchpads[self.execution.unit_base]
            offs = addr - self._spad_lo
            if addr.ndim == 0:
                return view[int(offs):int(offs) + size].copy()
            return view[offs[:, None] + np.arange(size)]

        def translate() -> np.ndarray:
            paddrs = self.translator.translate(addr)
            lo, hi = int(paddrs.min()), int(paddrs.max()) + size
            if any(s_lo < hi and lo < s_hi
                   for s_lo, s_hi in self._store_spans):
                raise LaunchFallback(
                    "load overlaps a buffered store (RAW via memory)", "raw")
            return paddrs

        paddrs = self.memlog.step("load", size, addr, translate).paddrs
        return self.device.physical.gather_rows(paddrs, size)

    def _store(self, lanes, addr, data: np.ndarray) -> None:
        """Buffer a store of (..., size) uint8 rows at per-µthread addrs."""
        addr = np.asarray(addr, dtype=np.int64)
        if self._classify(addr):
            raise LaunchFallback("scratchpad store in kernel body",
                                 "scratchpad")
        size = data.shape[-1]

        def translate() -> np.ndarray:
            paddrs = np.broadcast_to(
                np.atleast_1d(self.translator.translate(addr)), (self.n,))
            self._store_spans.append(
                (int(paddrs.min()), int(paddrs.max()) + size))
            return paddrs

        paddrs = self.memlog.step("store", size, addr, translate).paddrs
        rows = np.broadcast_to(
            data if data.ndim == 2 else data[None, :], (self.n, size)
        )
        self.memlog.stores.append((paddrs, np.ascontiguousarray(rows)))

    def commit(self) -> None:
        self.memlog.commit(self.device.physical)

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
                        raise LaunchFallback("trace exceeds step cap", "cap")
                    inst = instructions[pc]
                    self._executed += 1
                    if record:
                        self._ops[0] += 1
                        self._ops[FU_COLUMN[inst.unit]] += 1
                        self._lat_cycles += inst.latency_cycles
                    op = inst.op_class
                    if op is OpClass.RET:
                        break
                    if op is OpClass.BRANCH:
                        pc = self._exec_branch(inst, pc)
                    else:
                        self._step(inst, None, None)
                        pc += 1
            except UnsupportedVectorOp as exc:
                raise LaunchFallback(str(exc)) from None
        self.memlog.finish()
        if record:
            self.entry = self._build_entry()
        elif self._executed != self.entry.profiles[0].instr_steps:
            raise StaleTrace("control flow diverged from cached trace")
        return self

    def _build_entry(self) -> TraceEntry:
        """Derive the reusable launch profile from the completed walk."""
        return TraceEntry(self.device.translation_version, self.engine, [
            PhaseProfile(
                n=self.n,
                steps=self.memlog.steps,
                instr_steps=self._executed,
                ops=np.array(self._ops),
                lat_cycles=self._lat_cycles,
                stream=self.memlog.sector_profile(self.device.config.l2),
            )])

    # -- control flow and vector configuration (per walk) -------------------

    def _exec_branch(self, inst: Instruction, pc: int) -> int:
        if inst.mnemonic == "j":
            return inst.target
        taken = self._uniform_int(self._branch_cond(inst), "branch")
        return inst.target if taken else pc + 1

    def _exec_vset(self, inst: Instruction, m=None) -> None:
        sew = inst.imm
        requested = self._uniform_int(np.asarray(self.xr[inst.rs1]),
                                      "vsetvli AVL", "vconfig")
        if requested < 0:
            raise LaunchFallback(f"vsetvli with negative AVL {requested}")
        vl = min(requested, vlmax(sew))
        self.sew = sew
        self.vl = vl
        self._wx(inst.rd, np.int64(vl))

    # -- timing -----------------------------------------------------------

    def schedule(self, now_ns: float, cached: bool) -> None:
        """Charge the launch analytically and schedule its completion."""
        device = self.device
        cfg = device.config.ndp
        stats = device.stats
        execution = self.execution
        profile = self.entry.profiles[0]
        n = self.n
        trace_len = profile.instr_steps
        period = cfg.clock.period_ns
        start = max(now_ns, device.sim.now) + SPAWN_LATENCY_NS
        tail = LaunchTail(device, execution, "exec.batched", start,
                          uthreads=n, trace_cache="hit" if cached else "miss")
        num_units = execution.num_units

        # --- issue-throughput bound (per sub-core, FGMT hides latency) ---
        per_unit = math.ceil(n / num_units)
        per_subcore = per_unit / cfg.subcores_per_unit
        bank = device.issue_bank
        ops = profile.ops * per_subcore
        compute_ns = float((ops * period / bank.widths).max())
        # Occupy the sub-cores' dispatch/FU issue resources with the whole
        # launch in one bulk charge, so interpreter-path launches running
        # concurrently observe this launch's issue pressure.
        bank.charge(execution.unit_base, num_units, start, np.ceil(ops))

        # --- traffic stats + latency floor (serial thread latency x
        # occupancy waves) from the launch's step profile -----------------
        dram_lat = execution.partition.dram.typical_random_latency_ns()
        l1_hit = device.config.ndp.l1d.hit_latency_ns
        l2_hit = device.config.l2.hit_latency_ns
        thread_lat = profile.lat_cycles * period
        for step in profile.steps:
            if step.spad is not None:
                stats.add("ndp.spad_traffic_bytes", step.size * n)
                thread_lat += tail.units[0].scratchpad.latency_ns
                continue
            stats.add("ndp.global_traffic_bytes", step.size * n)
            stats.add("ndp.global_accesses", n)
            if step.op == "store":
                # posted write-through: the thread continues after L1
                thread_lat += l1_hit
            elif step.sector_count * 8 <= n:
                # many threads share these sectors (e.g. gemv's activation
                # vector): all but the first hit their unit's L1, so the
                # typical thread's critical path pays a hit, not DRAM
                thread_lat += l1_hit
            else:
                thread_lat += 2 * CROSSBAR_NS + l2_hit + dram_lat
        slots_per_unit = execution.slots_per_unit
        waves = math.ceil(per_unit / slots_per_unit)
        window = max(compute_ns, thread_lat * waves)

        # --- memory-system bound: sector stream through the real L2/DRAM -
        ratio = min(per_unit, slots_per_unit) / slots_per_unit
        completion = tail.pace(start, window, n, ratio, profile)
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
        self.trace_cache = TraceCache(device.stats)

    # ------------------------------------------------------------------

    def _classify(self, execution: KernelExecution) -> str | None:
        """Static routing: why the launch needs per-lane (masked or point)
        execution, or None when the launch-uniform walk may try it."""
        program = execution.instance.kernel.program
        if program.phased:
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
        key = trace_key(execution)
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
        tracer = obs_tracer.tracer_of(device.sim)
        if tracer is not None:
            tracer.instant(
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
        entry = cache.lookup(key, device.translation_version)
        if entry is not None and entry.engine != plan_cls.engine:
            if entry.engine == SimtPlan.engine:
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
                # the traceback holds the walk's frames and, through their
                # callers, the platform: a kept fallback must not pin it
                exc.__traceback__ = exc.__context__ = exc.__cause__ = None
                return exc
            stats.add("exec.trace_cache_misses")
            cache.store(key, plan.entry)
        plan.commit()
        stats.add(f"exec.{plan_cls.engine}_launches")
        plan.schedule(now_ns, cached)
        return None
