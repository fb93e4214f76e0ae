"""Masked SIMT execution engine for formerly-fallback launches.

The batched fast path (:mod:`repro.exec.batched`) only covers launches
whose µthreads march through the kernel in perfect, branch-uniform
lockstep.  Everything else — initializer/finalizer phases, atomics,
indexed gathers/scatters, scratchpad state, µthread-divergent control
flow, sub-threshold launch sizes — used to fall all the way back to the
per-µthread interpreter, a ~60x wall-clock cliff.  This module executes
those launches the way GPU simulators do: every µthread is a numpy
*lane*, divergent control flow is handled with an **active-mask stack**
that reconverges at immediate post-dominators (if-conversion for hammocks,
shrinking loop masks for divergent trip counts), and each instruction
executes once for all active lanes.

Functional guarantees
---------------------

* **Byte-identical memory results** vs the interpreter for every launch
  the engine accepts.  Stores are buffered per phase and committed at the
  phase barrier; AMOs are applied immediately in deterministic lane order,
  grouped by address (one reduction per address; per-element old values
  only when a register receives them), so commutative integer reductions
  land on exactly the bytes the interpreter's sequential interleaving
  produces.  Scratchpads execute on per-unit shadows of the byte range
  the launch writes (lane -> NDP unit mapping mirrors the generator's),
  written back only on success.
* **Hazard detection, not hazard emulation.**  Cross-lane communication
  through memory within one phase (a load overlapping another lane's
  buffered store or applied AMO, conflicting cross-lane stores,
  order-sensitive AMO overlap such as swaps or float accumulation onto a
  shared address) makes results depend on the interpreter's scheduling —
  those launches raise :class:`LaunchFallback` and run on the
  interpreter, with the launch's memory effects rolled back through an
  undo log.  Translation faults fall back the same way.
* **Determinism.**  Given the same launch, the engine always applies AMOs
  in the same lane order and produces the same ``runtime_ns`` — cached
  replays verify the recorded mask schedule and address vectors step by
  step (:class:`~repro.exec.trace_cache.StepLog`) and retrace on any
  divergence, so the trace cache can never change results.

Timing is analytic, like the batched tier: per-FU issue pressure from the
lane-weighted dynamic trace, a latency floor from a per-unit
chunked-wave model over per-lane latency estimates (which makes the
Fig 12a spawn-granularity ablation visible without per-event simulation),
and the launch's deduplicated sector stream paced through the real
L2/DRAM servers via the bulk charge APIs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TranslationFault
from repro.exec.trace_cache import (
    PhaseProfile,
    StaleTrace,
    StepLog,
    TraceEntry,
)
from repro.isa import vectorops as vo
from repro.isa.encoding import Instruction, OpClass
from repro.isa.vector import vlmax
from repro.isa.vectorops import UnsupportedVectorOp
from repro.mem.physical import PAGE_SIZE
from repro.ndp.generator import (
    ARG_SLOT_BYTES,
    SPAWN_LATENCY_NS,
    KernelExecution,
)
from repro.ndp.subcore import FU_COLUMN, ISSUE_COLUMNS
from repro.ndp.tlb import PAGE_SHIFT
from repro.ndp.unit import ATOMIC_OP_NS, CROSSBAR_NS
from repro.ndp.uthread import Phase
from repro.obs import tracer as obs_tracer
from repro.sim.stats import record_all

#: Safety cap on the dynamic trace length of one launch walk.
MAX_TRACE_STEPS = 200_000

_PAGE_MASK = (1 << PAGE_SHIFT) - 1

#: Fallback classes the backend counts under ``exec.fallback_reason.<slug>``.
FALLBACK_SLUGS = ("phases", "atomic", "gather", "divergent", "scratchpad",
                  "raw", "fault", "small", "vconfig", "cap", "unsupported")


class LaunchFallback(Exception):
    """Raised when a launch cannot run on a vectorized engine.

    ``slug`` attributes the fallback to one of :data:`FALLBACK_SLUGS` so
    ``exec.fallback_reason.<slug>`` counters make the residual interpreter
    traffic diagnosable instead of one opaque total.
    """

    def __init__(self, message: str, slug: str = "unsupported") -> None:
        super().__init__(message)
        self.slug = slug


class Translator:
    """Vectorized virtual-to-physical translation with a per-launch cache.

    Matches the functional path of :class:`repro.ndp.unit.UnitMemory`:
    only the *start* address of an access is translated (the allocator maps
    workload data with identity translations, so contiguity holds).
    """

    def __init__(self, page_table) -> None:
        self._table = page_table
        self._cache: dict[int, int] = {}

    def translate(self, vaddrs: np.ndarray) -> np.ndarray:
        vpns = np.unique(np.atleast_1d(vaddrs) >> np.int64(PAGE_SHIFT))
        ppns = np.empty_like(vpns)
        identity = True
        for i, vpn in enumerate(vpns):
            key = int(vpn)
            ppn = self._cache.get(key)
            if ppn is None:
                try:
                    ppn = self._table.lookup(key).ppn
                except TranslationFault:
                    raise LaunchFallback(
                        f"unmapped page vpn={key:#x}", "fault") from None
                self._cache[key] = ppn
            ppns[i] = ppn
            identity = identity and ppn == key
        if identity:
            return vaddrs
        idx = np.searchsorted(vpns, np.asarray(vaddrs) >> np.int64(PAGE_SHIFT))
        return (ppns[idx] << np.int64(PAGE_SHIFT)) | (vaddrs & _PAGE_MASK)


class LaunchTail:
    """The launch-completion tail every fast engine shares.

    An engine sizes each phase's *window* with its own roofline and hands
    it to :meth:`pace`, which feeds the phase's merged sector stream
    through the device's real L2/DRAM servers at a uniform rate across
    that window; :meth:`schedule` then books the launch counters and the
    completion event.  Spans: one ``span_name`` launch span from
    ``start_ns``, optional per-phase spans, and a ``mem.charge`` child
    per paced stream.
    """

    def __init__(self, device, execution: KernelExecution, span_name: str,
                 start_ns: float, **span_args) -> None:
        self.device = device
        self.execution = execution
        # A launch only sees (and only charges) its partition's unit
        # window and L2/DRAM.
        self.units = device.units[execution.unit_base:
                                  execution.unit_base + execution.num_units]
        self.tracer = obs_tracer.tracer_of(device.sim)
        self.span = None
        if self.tracer is not None:
            self.span = self.tracer.begin(
                span_name, start_ns, pid=device.trace_pid,
                instance=execution.instance.instance_id, **span_args)

    def occupy(self, at_ns: float, ratio: float) -> None:
        """Record the launch's slot occupancy on every unit of the window."""
        record_all([unit.occupancy.sampler for unit in self.units],
                   at_ns, ratio)

    def pace(self, start: float, window: float, lanes: int, ratio: float,
             profile, phase_span: str | None = None) -> float:
        """Charge one phase's sector stream (``profile``: a
        :class:`~repro.exec.trace_cache.PhaseProfile`); returns the phase
        completion."""
        device = self.device
        completion = start + window
        stream = profile.stream
        merged = stream.addrs.size
        mem_done = None
        if merged:
            # Every participating unit takes one on-chip TLB fill per page
            # it touches; the pre-warmed DRAM-TLB serves them without DRAM
            # traffic (§III-H), so only the stat is charged.
            device.stats.add("ndp.tlb_fill",
                             stream.page_count * min(len(self.units), lanes))
            dt = window / merged
            arrivals = start + dt * np.arange(merged)
            mem_done = device.l2_dram_access_batch(
                stream, arrivals, partition=self.execution.partition)
            completion = max(completion, mem_done)
        if self.tracer is not None:
            parent = self.span
            if phase_span is not None:
                parent = self.tracer.record(
                    phase_span, start, completion, parent=parent,
                    pid=device.trace_pid, lanes=lanes)
            if mem_done is not None:
                self.tracer.record("mem.charge", start, mem_done,
                                   parent=parent, pid=device.trace_pid,
                                   sectors=merged)
        self.occupy(start, ratio)
        return completion

    def schedule(self, completion: float, instructions: int,
                 lanes: int) -> None:
        """Book the launch's counters and its completion event."""
        device = self.device
        execution = self.execution
        instance = execution.instance
        stats = device.stats
        stats.add("ndp.instructions", instructions)
        stats.add("ndp.uthreads_spawned", lanes)
        stats.add("ndp.uthreads_finished", lanes)
        if self.tracer is not None:
            self.tracer.end(self.span, completion)

        def finish() -> None:
            now = device.sim.now
            instance.instructions += instructions
            instance.uthreads_done = instance.uthreads_total
            self.occupy(now, 0.0)
            execution.finish_now(now)

        device.sim.schedule_at(completion, finish)


# ---------------------------------------------------------------------------
# control-flow analysis: immediate post-dominators for reconvergence
# ---------------------------------------------------------------------------


#: Vector mnemonics that read their ``rd`` field as a source.
_RD_READERS = {"vmacc.vv", "vfmacc.vv", "vfmacc.vf", "vmv.s.x"}


def x_read_counts(program) -> dict[int, int]:
    """How many instructions read each register index as a source.

    Used to decide whether an AMO's returned *old value* is ever
    consumed: contended old values are order-dependent, but a result
    nobody reads (the common reduce/histogram pattern) keeps the launch
    on the deterministic grouped path.  Bank-agnostic and therefore
    conservative (an f/v register sharing the index counts as a read).
    Memoized on the program object.
    """
    cached = getattr(program, "_x_read_counts", None)
    if cached is not None:
        return cached
    counts: dict[int, int] = {}
    for inst in program.instructions:
        regs = [inst.rs1, inst.rs2, inst.rs3]
        if (inst.mnemonic in _RD_READERS
                or inst.op_class in (OpClass.VSTORE, OpClass.VSCATTER,
                                     OpClass.VAMO)):
            regs.append(inst.rd)
        for reg in regs:
            if reg:
                counts[reg] = counts.get(reg, 0) + 1
    program._x_read_counts = counts
    return counts


def immediate_postdominators(program) -> list[int]:
    """Reconvergence PC for every instruction index (exit = len(program)).

    Instruction-granular CFG: straight-line successors, resolved branch
    targets, ``ret``/end-of-program edges into a virtual exit node.
    Divergent branches reconverge at their immediate post-dominator —
    exactly the GPGPU-Sim SIMT-stack discipline.  Memoized on the program
    object (cluster runtimes re-assemble identical programs per launch).
    """
    cached = getattr(program, "_simt_ipdom", None)
    if cached is not None:
        return cached
    instructions = program.instructions
    count = len(instructions)
    exit_node = count
    succs: list[list[int]] = []
    for pc, inst in enumerate(instructions):
        if inst.op_class is OpClass.RET:
            succs.append([exit_node])
        elif inst.op_class is OpClass.BRANCH:
            target = inst.target if inst.target is not None else exit_node
            if inst.mnemonic == "j":
                succs.append([target])
            else:
                nxt = pc + 1 if pc + 1 < count else exit_node
                succs.append(sorted({nxt, target}))
        else:
            succs.append([pc + 1 if pc + 1 < count else exit_node])

    # Iterative postdominator sets over the ≤ few-hundred-instruction
    # programs of this ISA; bitsets keep it simple and fast enough.
    full = (1 << (count + 1)) - 1
    pdom = [full] * count + [1 << exit_node]
    changed = True
    while changed:
        changed = False
        for pc in range(count - 1, -1, -1):
            meet = full
            for s in succs[pc]:
                meet &= pdom[s]
            new = meet | (1 << pc)
            if new != pdom[pc]:
                pdom[pc] = new
                changed = True

    ipdom: list[int] = []
    for pc in range(count):
        strict = pdom[pc] & ~(1 << pc)
        # the immediate postdominator is the strict postdominator deepest
        # in the postdominator tree = the one with the largest pdom set
        best, best_size = exit_node, -1
        node = strict
        while node:
            bit = node & -node
            idx = bit.bit_length() - 1
            node ^= bit
            size = bin(pdom[idx]).count("1") if idx < count else 1
            if size > best_size:
                best, best_size = idx, size
        ipdom.append(best)
    program._simt_ipdom = ipdom
    return ipdom


# ---------------------------------------------------------------------------
# hazard interval logs
# ---------------------------------------------------------------------------


class _IntervalLog:
    """Append-only [lo, hi) interval set with a fast any-overlap query.

    The sorted index is rebuilt lazily on the first query after an
    ``add`` — quadratic in the worst case (alternating add/query), but a
    log only ever holds one phase's memory steps (bounded by the trace
    cap, typically tens), so a smarter incremental merge has not been
    worth its complexity; revisit if a profile ever says otherwise.
    """

    def __init__(self) -> None:
        self._los: list[np.ndarray] = []
        self._his: list[np.ndarray] = []
        self._starts: np.ndarray | None = None
        self._end_max: np.ndarray | None = None
        self.count = 0

    def add(self, los: np.ndarray, his: np.ndarray) -> None:
        if los.size:
            self._los.append(np.asarray(los, dtype=np.int64))
            self._his.append(np.asarray(his, dtype=np.int64))
            self._starts = None
            self.count += int(los.size)

    def overlaps(self, los: np.ndarray, his: np.ndarray) -> bool:
        if not self.count or not los.size:
            return False
        if self._starts is None:
            starts = np.concatenate(self._los)
            ends = np.concatenate(self._his)
            order = np.argsort(starts, kind="stable")
            self._starts = starts[order]
            # _end_max[i]: the furthest end of the first i intervals (none
            # for i = 0, so a query that no start precedes overlaps nothing)
            self._end_max = np.concatenate(
                ([np.iinfo(np.int64).min], np.maximum.accumulate(ends[order])))
        idx = np.searchsorted(self._starts, np.asarray(his, dtype=np.int64),
                              side="left")
        return bool((self._end_max[idx]
                     > np.asarray(los, dtype=np.int64)).any())


class _PhaseHazards:
    """Per-phase, per-address-space memory ordering hazards.

    The lockstep walk gives every phase a single canonical interleaving:
    all lanes execute step k before any lane executes step k+1, loads see
    pre-phase memory (stores buffer to the barrier), AMOs apply in lane
    order.  Whenever the interpreter's fine-grained schedule could order
    two overlapping accesses of *different* µthreads differently, the
    result is a race the engine must not silently pick a winner for —
    ``check_*`` raises :class:`LaunchFallback` (slug ``raw``) instead.
    Single-lane launches keep only the buffered-store rules: program
    order within one µthread is always preserved by the walk itself.
    """

    def __init__(self, single_lane: bool) -> None:
        self.single = single_lane
        self.loads = _IntervalLog()
        self.stores = _IntervalLog()
        #: commutative integer atomics, keyed by (op, size): only atomics
        #: of the *same* op and width commute byte-for-byte (a 4-byte add
        #: under an 8-byte add interacts through the carry chain)
        self.amos: dict[tuple[str, int], _IntervalLog] = {}
        self.amos_sensitive = _IntervalLog()   # swap / float accumulation

    def _amo_overlap(self, los, his, except_key=None) -> bool:
        if self.amos_sensitive.overlaps(los, his):
            return True
        return any(
            log.overlaps(los, his)
            for key, log in self.amos.items() if key != except_key
        )

    def add_amo(self, los, his, key: tuple[str, int],
                sensitive: bool) -> None:
        if sensitive:
            self.amos_sensitive.add(los, his)
        else:
            self.amos.setdefault(key, _IntervalLog()).add(los, his)

    def check_load(self, los, his) -> None:
        if self.stores.overlaps(los, his):
            raise LaunchFallback(
                "load overlaps a buffered store (RAW via memory)", "raw")
        if self.single:
            return  # applied AMOs are same-lane program order
        if self._amo_overlap(los, his):
            raise LaunchFallback(
                "load overlaps an applied atomic (RAW via memory)", "raw")

    def check_store(self, los, his) -> None:
        if self.single:
            return
        if self.loads.overlaps(los, his):
            raise LaunchFallback(
                "store overlaps an earlier cross-lane load", "raw")
        if self._amo_overlap(los, his):
            raise LaunchFallback(
                "store overlaps an applied atomic", "raw")
        if self.stores.overlaps(los, his):
            raise LaunchFallback(
                "store overlaps an earlier cross-lane store", "raw")

    def check_amo(self, los, his, key: tuple[str, int],
                  sensitive: bool) -> None:
        if self.stores.overlaps(los, his):
            raise LaunchFallback(
                "atomic overlaps a buffered store", "raw")
        if self.single:
            return
        if self.loads.overlaps(los, his):
            raise LaunchFallback(
                "atomic overlaps an earlier cross-lane load", "raw")
        if self._amo_overlap(los, his, except_key=None if sensitive else key):
            raise LaunchFallback(
                "order-sensitive atomic overlap", "raw")


# ---------------------------------------------------------------------------
# SIMT stack entry
# ---------------------------------------------------------------------------


@dataclass
class _StackEntry:
    next_pc: int
    reconv_pc: int
    mask: np.ndarray            # bool (n,)


# ---------------------------------------------------------------------------
# one-phase masked walk
# ---------------------------------------------------------------------------


class _PhaseWalk(vo.LaneISA):
    """Masked lockstep execution of one phase's µthreads.

    Every register is held per lane — ``(n,)`` scalars, ``(n, k)``
    vectors — and written under the active mask; the instruction
    semantics themselves are :class:`~repro.isa.vectorops.LaneISA`'s.
    """

    def __init__(self, plan: "SimtPlan", program, n: int,
                 x1: np.ndarray, x2: np.ndarray, unit_of_lane: np.ndarray,
                 profile: PhaseProfile | None) -> None:
        self.plan = plan
        self.program = program
        self.n = n
        self._lanes = (n,)
        self.unit_of_lane = unit_of_lane
        self._verify = profile
        self.memlog = StepLog(None if profile is None else profile.steps)
        self._executed = 0
        self._lane_instructions = 0
        self._ops = [0] * ISSUE_COLUMNS     # instruction mix, over lanes
        self._lat_cycles = np.zeros(n, dtype=np.int64)
        self._mem_lat = np.zeros(n, dtype=np.float64)
        self._spad_counters: dict[int, list[int]] = {}
        self._global_bytes = 0
        self._global_accesses = 0
        self._spad_bytes = 0
        self._atomics = 0
        self.hazards_global = _PhaseHazards(n == 1)
        self.hazards_spad = _PhaseHazards(n == 1)
        self._seen_sectors: set[int] = set()     # first-touch set

        self.xr: list[np.ndarray] = [np.zeros(n, dtype=np.int64)] * 32
        self.xr[1] = np.asarray(x1, dtype=np.int64)
        self.xr[2] = np.asarray(x2, dtype=np.int64)
        self.xr[3] = np.full(n, plan.execution.args_vaddr, dtype=np.int64)
        self.fr: list[np.ndarray] = [np.zeros(n, dtype=np.float64)] * 32
        self.vr: list[np.ndarray | None] = [None] * 32
        self.vl = np.full(n, -1, dtype=np.int64)      # -1 = VLMAX sentinel
        self.sew = np.full(n, 64, dtype=np.int64)

        device = plan.device
        spad = device.units[plan.execution.unit_base].scratchpad
        self._spad_lo = spad.base_vaddr
        self._spad_size = spad.size_bytes
        self._spad_hi = spad.base_vaddr + spad.size_bytes
        self._spad_latency = spad.latency_ns
        self._args_lo = plan.execution.args_vaddr
        self._args_hi = plan.execution.args_vaddr + ARG_SLOT_BYTES
        cfg = device.config
        self._period = cfg.ndp.clock.period_ns
        self._l1_hit = cfg.ndp.l1d.hit_latency_ns
        self._l2_hit = cfg.l2.hit_latency_ns
        self._dram_lat = (
            plan.execution.partition.dram.typical_random_latency_ns())
        self._l2_config = cfg.l2

    # -- register plumbing -------------------------------------------------

    def _wx(self, idx: int, val, m: np.ndarray | None) -> None:
        if not idx:
            return
        v = np.broadcast_to(
            np.asarray(val).astype(np.int64), (self.n,))
        self.xr[idx] = v.copy() if m is None else np.where(m, v, self.xr[idx])

    def _wf(self, idx: int, val, m: np.ndarray | None) -> None:
        v = np.broadcast_to(np.asarray(val, dtype=np.float64), (self.n,))
        self.fr[idx] = v.copy() if m is None else np.where(m, v, self.fr[idx])

    def _wv(self, idx: int, val: np.ndarray, m: np.ndarray | None) -> None:
        v = np.asarray(val, dtype=np.uint64)
        if v.ndim == 1:
            v = np.broadcast_to(v[None, :], (self.n, v.shape[0]))
        if m is None:
            self.vr[idx] = np.ascontiguousarray(v)
            return
        # Inactive lanes keep their full-width old register (the write may
        # narrow it); active lanes read zeros past the written elements,
        # exactly like the scalar executor's shorter value list.
        old = self.vr[idx]
        k_old = old.shape[-1] if old is not None else 0
        k = max(k_old, v.shape[-1])
        if v.shape[-1] < k:
            v = np.concatenate(
                [v, np.zeros((self.n, k - v.shape[-1]), dtype=np.uint64)],
                axis=-1)
        self.vr[idx] = np.where(m[:, None], v, self._read_v(idx, k))

    def _uniform(self, arr: np.ndarray, m: np.ndarray | None,
                 what: str, slug: str = "vconfig") -> int:
        vals = arr if m is None else arr[m]
        first = vals[0] if vals.size else 0
        if vals.size and not np.all(vals == first):
            raise LaunchFallback(f"µthread-divergent {what}", slug)
        return int(first)

    def _cur_vl(self, m: np.ndarray | None) -> int:
        return self._uniform(self.vl, m, "vector length")

    def _cur_sew(self, m: np.ndarray | None) -> int:
        return self._uniform(self.sew, m, "vector SEW")

    # -- memory ------------------------------------------------------------

    def _normalize_vaddrs(self, vaddrs: np.ndarray) -> np.ndarray:
        """Relocate arg-block addresses before recording/verifying.

        The 64 B argument block rotates through scratchpad slots per
        kernel *instance* (``instance_id % max_concurrent_kernels``), so
        otherwise-identical launches read their arguments at different
        vaddrs.  Mapping those onto a slot-independent synthetic base
        keeps the recorded mask schedule comparable across instances;
        any access straddling the block boundary normalizes differently
        per launch and simply retraces.
        """
        in_args = (vaddrs >= self._args_lo) & (vaddrs < self._args_hi)
        if not in_args.any():
            return vaddrs
        out = vaddrs.copy()
        out[in_args] = vaddrs[in_args] - self._args_lo - np.int64(1 << 40)
        return out

    def _mem_step(self, op: str, size: int, lanes: np.ndarray,
                  addrs: np.ndarray, amo_op: str | None = None,
                  amo_float: bool = False):
        """Split one access vector into scratchpad and global elements,
        then record it (translating the global ones) or verify it against
        the cached phase; returns the step plus each side's selectors:
        the scratchpad one is None without such elements and a slice when
        every element is one (no copies), the global one index array."""
        spad = (addrs >= self._spad_lo) & (addrs < self._spad_hi)
        if not spad.any():
            spad = None
            s_sel, g_sel = None, np.arange(addrs.size)
        elif spad.all():
            s_sel, g_sel = slice(None), np.empty(0, dtype=np.int64)
        else:
            s_sel, g_sel = np.nonzero(spad)[0], np.nonzero(~spad)[0]

        def translate() -> np.ndarray:
            if not g_sel.size:
                return np.empty(0, dtype=np.int64)
            return np.atleast_1d(
                self.plan.translator.translate(addrs[g_sel]))

        step = self.memlog.step(
            op, size, self._normalize_vaddrs(addrs), translate, lanes=lanes,
            spad=spad, amo_op=amo_op, amo_float=amo_float)
        return step, s_sel, g_sel

    def _sector_novelty(self) -> float:
        """First-touch fraction of the just-recorded step's sectors.

        Only a step's *first-touch* sectors pay the DRAM round trip in
        the per-lane latency estimate — re-walked data (a pointer-chased
        contribution array, re-read partials) sits in the memory-side L2
        by then, exactly as the interpreter's timed path observes.
        """
        sectors = self.memlog.sectors(self._l2_config.sector_bytes)
        seen = self._seen_sectors
        before = len(seen)
        seen.update(sectors.tolist())     # a step's sectors are unique
        return (len(seen) - before) / sectors.size

    def _spad_elems(self, lanes: np.ndarray, addrs: np.ndarray, size: int,
                    what: int, bytes_each: int):
        """Units, window offsets and hazard-log keys of a step's
        scratchpad elements, charging what each such access pays: per-unit
        counter deltas (flushed on success only; ``what``: 0=reads,
        1=writes, 2=atomics), traffic bytes and — when tracing — the
        latency."""
        offs = addrs - np.int64(self._spad_lo)
        if (offs < 0).any() or (offs + size > self._spad_size).any():
            raise LaunchFallback("scratchpad access outside window",
                                 "scratchpad")
        units = self.unit_of_lane[lanes]
        counts = np.bincount(units)
        for u in np.flatnonzero(counts).tolist():
            row = self._spad_counters.setdefault(u, [0, 0, 0, 0])
            row[what] += int(counts[u])
            row[3] += int(counts[u]) * bytes_each
        self._spad_bytes += int(lanes.size) * size
        if self._verify is None:
            self._mem_lat_add(lanes, self._spad_latency)
        # scratchpads are per unit: the hazard logs see disjoint intervals
        syn = units * np.int64(self._spad_size)
        syn += offs
        return units, offs, syn

    @staticmethod
    def _by_unit(units: np.ndarray):
        """(plan-local unit, its elements' indices) per unit in ``units``."""
        for u in np.flatnonzero(np.bincount(units)).tolist():
            yield u, np.flatnonzero(units == u)

    def _spad_gather(self, units: np.ndarray, offs: np.ndarray,
                     size: int) -> np.ndarray:
        out = np.empty((offs.size, size), dtype=np.uint8)
        for u, sel in self._by_unit(units):
            out[sel] = self.plan.spad(u).gather_rows(offs[sel], size)
        return out

    def _spad_scatter(self, units: np.ndarray, offs: np.ndarray,
                      rows: np.ndarray) -> None:
        for u, sel in self._by_unit(units):
            self.plan.spad(u).scatter_rows(offs[sel], rows[sel])

    def _check_intra_store(self, lanes: np.ndarray, los: np.ndarray,
                           size: int, rows: np.ndarray) -> None:
        """Cross-lane conflicting writes inside one step are races."""
        if self.n == 1 or los.size <= 1:
            return
        order = np.argsort(los, kind="stable")
        lo_s, lane_s, rows_s = los[order], lanes[order], rows[order]
        overlap = lo_s[1:] < lo_s[:-1] + size
        if not overlap.any():
            return
        idx = np.nonzero(overlap)[0]
        cross = lane_s[idx] != lane_s[idx + 1]
        if not cross.any():
            return
        bad = idx[cross]
        exact = lo_s[bad] == lo_s[bad + 1]
        same = exact & np.all(rows_s[bad] == rows_s[bad + 1], axis=1)
        if not same.all():
            raise LaunchFallback("cross-lane conflicting stores", "raw")

    def _load(self, lanes: np.ndarray, addrs: np.ndarray,
              size: int) -> np.ndarray:
        """Load ``size`` bytes per (lane, addr) element; (e, size) uint8."""
        step, s_sel, g_sel = self._mem_step("load", size, lanes, addrs)
        paddrs = step.paddrs
        out = np.empty((addrs.size, size), dtype=np.uint8)
        if s_sel is not None:
            units, offs, syn = self._spad_elems(
                lanes[s_sel], addrs[s_sel], size, 0, size)
            if self._verify is None:
                his = syn + size
                self.hazards_spad.check_load(syn, his)
                self.hazards_spad.loads.add(syn, his)
            out[s_sel] = self._spad_gather(units, offs, size)
        if g_sel.size:
            out[g_sel] = self.plan.device.physical.gather_rows(paddrs, size)
            self._global_bytes += int(g_sel.size) * size
            self._global_accesses += int(g_sel.size)
            if self._verify is None:
                self.hazards_global.check_load(paddrs, paddrs + size)
                self.hazards_global.loads.add(paddrs, paddrs + size)
                frac = self._sector_novelty()
                hot = step.sector_count * 8 <= g_sel.size
                self._mem_lat_add(
                    lanes[g_sel],
                    self._l1_hit if hot
                    else 2 * CROSSBAR_NS + self._l2_hit
                    + frac * self._dram_lat)
        return out

    def _store(self, lanes: np.ndarray, addrs: np.ndarray,
               rows: np.ndarray) -> None:
        size = rows.shape[-1]
        step, s_sel, g_sel = self._mem_step("store", size, lanes, addrs)
        paddrs = step.paddrs
        if s_sel is not None:
            s_lanes, s_rows = lanes[s_sel], rows[s_sel]
            units, offs, syn = self._spad_elems(s_lanes, addrs[s_sel], size,
                                                1, size)
            self._check_intra_store(s_lanes, syn, size, s_rows)
            if self._verify is None:
                his = syn + size
                self.hazards_spad.check_store(syn, his)
                self.hazards_spad.stores.add(syn, his)
            # scratchpad writes apply immediately (to the shadow): later
            # same-lane reads are program order, cross-lane reads are
            # hazard-checked above
            self._spad_scatter(units, offs, s_rows)
        if g_sel.size:
            # the data-dependent half of the conflict rule is re-checked
            # even on cached replays (addresses are verified, data is not)
            self._check_intra_store(lanes[g_sel], paddrs, size, rows[g_sel])
            if self._verify is None:
                self.hazards_global.check_store(paddrs, paddrs + size)
                self.hazards_global.stores.add(paddrs, paddrs + size)
                self._sector_novelty()
                self._mem_lat_add(lanes[g_sel], self._l1_hit)
            self.memlog.stores.append(
                (paddrs, np.ascontiguousarray(rows[g_sel])))
            self._global_bytes += int(g_sel.size) * size
            self._global_accesses += int(g_sel.size)

    def _amo(self, lanes: np.ndarray, addrs: np.ndarray, operands,
             op: str, size: int, is_float: bool,
             consumed: bool = False, want_olds: bool = False):
        """Apply one AMO step in lane order; returns the old values (e,)
        when ``want_olds`` (a register receives them), else None.

        ``consumed`` marks AMOs whose returned old value some later
        instruction reads: under contention those olds depend on the
        interpreter's scheduling, so the step is treated as
        order-sensitive (fallback on any contention or overlap).
        """
        step, s_sel, g_sel = self._mem_step(
            "amo", size, lanes, addrs, amo_op=op, amo_float=is_float)
        paddrs = step.paddrs
        sensitive = is_float or op == "swap" or consumed
        amo_key = (op, size)
        operands = np.asarray(operands)
        olds = None
        if want_olds:
            olds = np.empty(addrs.size,
                            dtype=np.float64 if is_float else np.int64)
        if s_sel is not None:
            units, offs, syn = self._spad_elems(
                lanes[s_sel], addrs[s_sel], size, 2, 2 * size)
            if self._verify is None:
                his = syn + size
                self.hazards_spad.check_amo(syn, his, amo_key, sensitive)
                self.hazards_spad.add_amo(syn, his, amo_key, sensitive)
            s_ops = operands[s_sel]
            if want_olds:
                s_olds = np.empty_like(olds, shape=offs.size)
            for u, sel in self._by_unit(units):
                part = self._apply_amo(
                    self.plan.spad(u), offs[sel], s_ops[sel], op, size,
                    is_float, sensitive, want_olds)
                if want_olds:
                    s_olds[sel] = part
            if want_olds:
                olds[s_sel] = s_olds
        if g_sel.size:
            if self._verify is None:
                self.hazards_global.check_amo(paddrs, paddrs + size,
                                              amo_key, sensitive)
                self.hazards_global.add_amo(paddrs, paddrs + size,
                                            amo_key, sensitive)
            part = self._apply_amo(
                self.plan.device.physical, paddrs, operands[g_sel], op, size,
                is_float, sensitive, want_olds, undo=self.plan.undo)
            if want_olds:
                olds[g_sel] = part
            self._atomics += int(g_sel.size)
            self._global_bytes += int(g_sel.size) * size
            self._global_accesses += int(g_sel.size)
            if self._verify is None:
                frac = self._sector_novelty()
                self._mem_lat_add(
                    lanes[g_sel],
                    2 * CROSSBAR_NS + self._l2_hit + ATOMIC_OP_NS
                    + frac * self._dram_lat)
        return olds

    def _apply_amo(self, memory, addrs: np.ndarray, operands: np.ndarray,
                   op: str, size: int, is_float: bool, sensitive: bool,
                   want_olds: bool, undo: list | None = None):
        """Lane-ordered, grouped-by-address read-modify-write of one
        address space: ``memory`` is the physical store (``undo`` gets its
        old rows) or one unit's scratchpad shadow, each read and written
        through ``gather_rows`` / ``scatter_rows``.

        Each address's final value is one reduction over its elements.
        Per-element old values — returned only when ``want_olds`` — apply
        in ascending element (lane) order within each address; for the
        commutative integer ops the final bytes equal any interleaving,
        including the interpreter's.  Multi-lane groups of order-sensitive
        steps (swap, float adds, any AMO whose old value is consumed
        downstream) are rejected — their result depends on scheduling the
        engine does not model.
        """
        uniq, first, inverse = np.unique(addrs, return_index=True,
                                         return_inverse=True)
        multi = uniq.size < addrs.size
        if multi and self.n > 1 and sensitive:
            raise LaunchFallback(
                "order-sensitive atomic contention "
                "(swap / float / consumed old value)", "atomic")

        # read the current values
        rows = memory.gather_rows(uniq, size)
        if undo is not None:
            undo.append((uniq, rows))
        sew = size * 8
        if is_float:
            init = vo.bits_to_float(vo.from_le_bytes(rows), sew)
        else:
            init = vo.sign_extend(vo.from_le_bytes(rows), sew)

        olds = None
        if op == "add" and not is_float:
            ops64 = operands.astype(np.int64)
            sums = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(sums, inverse, ops64)
            finals = vo.sign_extend(vo.to_pattern(init + sums, sew), sew)
            if want_olds:
                # an element's old value: its address's initial value plus
                # the operands of the elements before it there
                order = np.argsort(inverse, kind="stable")
                ops_sorted = ops64[order]
                csum = np.cumsum(ops_sorted)
                gid = inverse[order]
                start_idx = np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]])
                base = csum[start_idx] - ops_sorted[start_idx]
                olds = np.empty_like(init, shape=addrs.size)
                olds[order] = vo.sign_extend(vo.to_pattern(
                    init[gid] + (csum - ops_sorted - base[gid]), sew), sew)
        elif not multi:
            finals = self._amo_scalar(op, init, operands[first], sew,
                                      is_float)
            if want_olds:
                olds = init[inverse]
        else:
            # rare: multi-lane min/max/or/and groups, or one lane's float
            # adds or swaps — small ordered loop
            order = np.argsort(inverse, kind="stable")
            bounds = np.r_[0, np.cumsum(np.bincount(inverse))]
            finals = np.empty_like(init)
            olds_sorted = np.empty_like(init, shape=addrs.size)
            for g in range(uniq.size):
                val = init[g]
                for j in range(bounds[g], bounds[g + 1]):
                    olds_sorted[j] = val
                    nxt = self._amo_scalar(
                        op, np.asarray([val]),
                        np.asarray([operands[order[j]]]), sew, is_float)
                    val = nxt[0]
                finals[g] = val
            if want_olds:
                olds = np.empty_like(olds_sorted)
                olds[order] = olds_sorted
        # write the new values back
        memory.scatter_rows(uniq, vo.to_le_bytes(
            vo.float_to_bits(finals, sew) if is_float
            else vo.to_pattern(finals, sew), size))
        return olds

    @staticmethod
    def _amo_scalar(op: str, old: np.ndarray, operand: np.ndarray,
                    sew: int, is_float: bool) -> np.ndarray:
        if op == "add":
            new = old + operand
        elif op == "swap":
            new = operand.astype(old.dtype)
        elif op == "min":
            new = np.minimum(old, operand)
        elif op == "max":
            new = np.maximum(old, operand)
        elif op == "or":
            new = old.astype(np.int64) | operand.astype(np.int64)
        elif op == "and":
            new = old.astype(np.int64) & operand.astype(np.int64)
        elif op == "xor":
            new = old.astype(np.int64) ^ operand.astype(np.int64)
        else:
            raise LaunchFallback(f"unsupported AMO op {op!r}")
        if is_float:
            if sew == 32:
                return new.astype(np.float32).astype(np.float64)
            return np.asarray(new, dtype=np.float64)
        return vo.sign_extend(vo.to_pattern(new, sew), sew)

    def _mem_lat_add(self, lanes: np.ndarray, amount: float) -> None:
        # one latency charge per lane per step; multi-element accesses of
        # one lane issue back to back, adding a period per extra element
        counts = np.bincount(lanes, minlength=self.n)
        hit = np.flatnonzero(counts)
        self._mem_lat[hit] += amount + (counts[hit] - 1) * self._period

    # -- main walk ---------------------------------------------------------

    def run(self) -> PhaseProfile:
        instructions = self.program.instructions
        count = len(instructions)
        ipdom = immediate_postdominators(self.program)
        exit_pc = count
        stack = [_StackEntry(0, exit_pc, np.ones(self.n, dtype=bool))]
        exited = np.zeros(self.n, dtype=bool)

        with np.errstate(all="ignore"):
            try:
                while stack:
                    top = stack[-1]
                    mask = top.mask & ~exited
                    if not mask.any() or top.next_pc == top.reconv_pc:
                        stack.pop()
                        continue
                    if top.next_pc >= count:
                        exited |= mask
                        stack.pop()
                        continue
                    if self._executed >= MAX_TRACE_STEPS:
                        raise LaunchFallback("trace exceeds step cap", "cap")
                    self._executed += 1
                    active = int(mask.sum())
                    self._lane_instructions += active
                    inst = instructions[top.next_pc]
                    if self._verify is None:
                        self._ops[0] += active
                        self._ops[FU_COLUMN[inst.unit]] += active
                        self._lat_cycles[mask] += inst.latency_cycles
                    m = None if active == self.n else mask
                    op = inst.op_class
                    if op is OpClass.BRANCH:
                        self._branch(inst, top, mask, m, stack, ipdom)
                        continue
                    if op is OpClass.RET:
                        exited |= mask
                        top.next_pc = top.reconv_pc
                        continue
                    self._step(inst, m, mask)
                    top.next_pc += 1
            except UnsupportedVectorOp as exc:
                raise LaunchFallback(str(exc)) from None

        self.memlog.finish()
        profile = self._verify
        if profile is not None:
            if (self._executed != profile.instr_steps
                    or self._lane_instructions != profile.lane_instructions):
                raise StaleTrace("control flow diverged from cached trace")
            return profile
        return self._build_profile()

    def _branch(self, inst: Instruction, top: _StackEntry, mask: np.ndarray,
                m: np.ndarray | None, stack: list[_StackEntry],
                ipdom: list[int]) -> None:
        pc = top.next_pc
        if inst.mnemonic == "j":
            top.next_pc = inst.target
            return
        taken = np.asarray(self._branch_cond(inst), dtype=bool) & mask
        n_taken = int(taken.sum())
        if n_taken == int(mask.sum()):
            top.next_pc = inst.target
            return
        if n_taken == 0:
            top.next_pc = pc + 1
            return
        # divergence: current entry waits at the reconvergence point, the
        # two sides execute under their sub-masks (fall-through first)
        reconv = ipdom[pc]
        top.next_pc = reconv
        stack.append(_StackEntry(inst.target, reconv, taken))
        stack.append(_StackEntry(pc + 1, reconv, mask & ~taken))

    def _step(self, inst: Instruction, m: np.ndarray | None,
              mask: np.ndarray) -> None:
        execute = self._INDEXED.get(inst.op_class, vo.LaneISA._step)
        execute(self, inst, m, mask)

    # -- scalar ------------------------------------------------------------

    def _active(self, mask: np.ndarray) -> np.ndarray:
        return np.nonzero(mask)[0]

    def _spread(self, vals: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n,) + vals.shape[1:], dtype=vals.dtype)
        out[lanes] = vals
        return out

    def _exec_amo(self, inst: Instruction, m: np.ndarray | None,
                  mask: np.ndarray) -> None:
        op, size, is_float = vo.AMO_OPS[inst.mnemonic]
        lanes = self._active(mask)
        addrs = self.xr[inst.rs1][lanes] + np.int64(inst.imm)
        consumed = False
        if inst.rd:
            # under contention the returned old value depends on thread
            # scheduling; only a result some later instruction reads makes
            # that observable (the AMO's own operand/base reads don't
            # consume the result — they read the pre-AMO register)
            reads = x_read_counts(self.program).get(inst.rd, 0)
            self_reads = (inst.rs1 == inst.rd) + (inst.rs2 == inst.rd)
            consumed = reads - self_reads > 0
        if is_float:
            operands = self.fr[inst.rs2][lanes]
            olds = self._amo(lanes, addrs, operands, op, size, True,
                             consumed, want_olds=True)
            self._wf(inst.rd, self._spread(olds, lanes), m)
        else:
            operands = self.xr[inst.rs2][lanes]
            if size == 4:
                operands = vo.sign_extend(vo.to_pattern(operands, 32), 32)
            olds = self._amo(lanes, addrs, operands, op, size, False,
                             consumed, want_olds=bool(inst.rd))
            if inst.rd:
                self._wx(inst.rd, self._spread(olds, lanes), m)

    # -- vector ------------------------------------------------------------

    def _exec_vset(self, inst: Instruction, m: np.ndarray | None) -> None:
        sew = inst.imm
        requested = self.xr[inst.rs1]
        check = requested if m is None else requested[m]
        if np.any(check < 0):
            raise LaunchFallback("vsetvli with negative AVL")
        vl = np.minimum(requested, np.int64(vlmax(sew)))
        if m is None:
            self.vl = vl.copy()
            self.sew = np.full(self.n, sew, dtype=np.int64)
        else:
            self.vl = np.where(m, vl, self.vl)
            self.sew = np.where(m, np.int64(sew), self.sew)
        self._wx(inst.rd, vl, m)

    def _flatten_indexed(self, inst: Instruction, mask: np.ndarray,
                         vl: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-element (lanes, addrs) for indexed vector memory ops,
        lane-major — the canonical application order."""
        lanes = self._active(mask)
        addrs = self._read_v(inst.rs2, vl)[lanes].view(np.int64)
        addrs += self.xr[inst.rs1][lanes][:, None]
        addrs = addrs.reshape(-1)
        flat_lanes = np.repeat(lanes, vl)
        return flat_lanes, addrs

    def _exec_vgather(self, inst: Instruction, m: np.ndarray | None,
                      mask: np.ndarray) -> None:
        sew = inst.size * 8
        vl = self._eff_vl(m, sew)
        if vl == 0:
            self._wv(inst.rd, np.zeros((self.n, 0), dtype=np.uint64), m)
            return
        lanes = self._active(mask)
        flat_lanes, addrs = self._flatten_indexed(inst, mask, vl)
        raw = self._load(flat_lanes, addrs, inst.size)
        elems = vo.from_le_bytes(raw).reshape(lanes.size, vl)
        self._wv(inst.rd, self._spread(elems, lanes), m)

    def _exec_vscatter(self, inst: Instruction, m: np.ndarray | None,
                       mask: np.ndarray) -> None:
        sew = inst.size * 8
        vl = self._eff_vl(m, sew)
        if vl == 0:
            return
        lanes = self._active(mask)
        flat_lanes, addrs = self._flatten_indexed(inst, mask, vl)
        values = vo.to_pattern(
            self._read_v(inst.rd, vl)[lanes].astype(np.int64), sew)
        rows = vo.to_le_bytes(values.reshape(-1), inst.size)
        self._store(flat_lanes, addrs, rows)

    def _exec_vamo(self, inst: Instruction, m: np.ndarray | None,
                   mask: np.ndarray) -> None:
        sew = inst.size * 8
        vl = self._eff_vl(m, sew)
        if vl == 0:
            return
        lanes = self._active(mask)
        flat_lanes, addrs = self._flatten_indexed(inst, mask, vl)
        values = vo.sign_extend(self._read_v(inst.rd, vl)[lanes], sew)
        self._amo(flat_lanes, addrs, values.reshape(-1), "add", inst.size,
                  False)

    #: op classes only this walk executes (per-lane addressing / atomics)
    _INDEXED = {OpClass.AMO: _exec_amo, OpClass.VGATHER: _exec_vgather,
                OpClass.VSCATTER: _exec_vscatter, OpClass.VAMO: _exec_vamo}

    # -- profile -----------------------------------------------------------

    def _build_profile(self) -> PhaseProfile:
        return PhaseProfile(
            n=self.n,
            unit_of_lane=self.unit_of_lane,
            steps=self.memlog.steps,
            instr_steps=self._executed,
            lane_instructions=self._lane_instructions,
            ops=np.array(self._ops),
            lat_cycles=self._lat_cycles,
            mem_lat=self._mem_lat,
            stream=self.memlog.sector_profile(self._l2_config),
            global_bytes=self._global_bytes,
            global_accesses=self._global_accesses,
            spad_bytes=self._spad_bytes,
            atomics=self._atomics,
            spad_counters={
                u: tuple(row) for u, row in self._spad_counters.items()
            },
        )


# ---------------------------------------------------------------------------
# whole-launch plan: phases, shadows, undo, timing
# ---------------------------------------------------------------------------


class _ShadowRow:
    """One unit's scratchpad row as a launch sees it.

    ``buf`` is the launch's copy of the row's bytes ``[lo, lo + buf.size)``:
    every byte the launch wrote, and the rest of their pages as the row
    holds them.  Bytes outside it are read from the row itself, which
    nothing writes before :meth:`commit`.
    """

    def __init__(self, row: np.ndarray) -> None:
        self.row = row
        self.lo = 0
        self.buf = row[:0].copy()

    def _cover(self, lo: int, hi: int) -> None:
        """Grow the copy to cover ``[lo, hi)``, in whole pages."""
        old_lo, old = self.lo, self.buf
        if old.size:
            if old_lo <= lo and hi <= old_lo + old.size:
                return
            lo, hi = min(lo, old_lo), max(hi, old_lo + old.size)
        lo -= lo % PAGE_SIZE
        hi = min(hi - hi % -PAGE_SIZE, self.row.size)
        self.lo, self.buf = lo, self.row[lo:hi].copy()
        if old.size:
            self.buf[old_lo - lo:old_lo - lo + old.size] = old

    def gather_rows(self, offs: np.ndarray, size: int) -> np.ndarray:
        """``size`` bytes at each row offset; (e, size) uint8."""
        cols = np.arange(size)
        while True:
            lo, hi = self.lo, self.lo + self.buf.size
            inside = (offs >= lo) & (offs + size <= hi)
            if inside.all():
                return self.buf[(offs - lo)[:, None] + cols]
            straddle = ~inside & (offs < hi) & (offs + size > lo)
            if not straddle.any():
                break
            self._cover(int(offs[straddle].min()),
                        int(offs[straddle].max()) + size)
        out = self.row[offs[:, None] + cols]
        if inside.any():
            out[inside] = self.buf[(offs[inside] - lo)[:, None] + cols]
        return out

    def scatter_rows(self, offs: np.ndarray, rows: np.ndarray) -> None:
        """Write each row at its offset; later rows win on overlap."""
        size = rows.shape[-1]
        self._cover(int(offs.min()), int(offs.max()) + size)
        self.buf[(offs - self.lo)[:, None] + np.arange(size)] = rows

    def commit(self) -> None:
        self.row[self.lo:self.lo + self.buf.size] = self.buf


class SimtPlan:
    """Run one launch through the masked engine, phase by phase.

    ``run()`` walks initializer -> bodies -> finalizer with the barrier
    semantics of :class:`~repro.ndp.generator.KernelExecution`: each
    phase's buffered global stores commit at its barrier (with undo
    records), scratchpad effects accumulate on per-unit shadows, and a
    fallback or stale-trace abort anywhere rolls the whole launch back so
    the interpreter re-executes it from pristine state.  A unit's shadow
    (:class:`_ShadowRow`) holds only the byte range the launch writes in
    that unit's row, widened to whole pages: a write grows the range to
    cover itself, a read wholly outside it comes from the real row, a read
    straddling its edge grows it first, and ``commit`` writes back that
    range only.  With a cached
    :class:`TraceEntry` the walk is a verified replay; either way
    ``entry`` holds the launch's cacheable schedule once ``run`` returns.
    """

    engine = "simt"

    def __init__(self, device, execution: KernelExecution,
                 entry: TraceEntry | None = None) -> None:
        self.device = device
        self.execution = execution
        self.entry = entry
        self.translator = Translator(
            device.page_table(execution.instance.asid))
        self.spad_shadows: dict[int, _ShadowRow] = {}
        self.undo: list[tuple[np.ndarray, np.ndarray]] = []
        self.profiles: list[PhaseProfile] = []

    # -- scratchpad shadows ------------------------------------------------

    def spad(self, unit: int) -> _ShadowRow:
        """``unit`` is plan-local; shadows map to the physical unit."""
        shadow = self.spad_shadows.get(unit)
        if shadow is None:
            shadow = self.spad_shadows[unit] = _ShadowRow(
                self.device.scratchpads[self.execution.unit_base + unit])
        return shadow

    # -- lane layouts (mirror repro.ndp.generator._PhasePlan) ---------------

    def _phase_lanes(self, phase: Phase):
        instance = self.execution.instance
        num_units = self.execution.num_units
        if phase is Phase.BODY:
            n = instance.num_body_uthreads
            idx = np.arange(n, dtype=np.int64)
            stride = np.int64(instance.uthread_stride)
            x1 = np.int64(instance.pool_base) + idx * stride
            x2 = np.int64(instance.offset_bias) + idx * stride
            unit_of_lane = idx % np.int64(num_units)
            return n, x1, x2, unit_of_lane
        slots = self.execution.slots_per_unit
        n = num_units * slots
        lane = np.arange(n, dtype=np.int64)
        x1 = lane // np.int64(slots)        # NDP unit index
        x2 = lane % np.int64(slots)         # slot-local unique ID
        return n, x1, x2, x1.copy()

    # -- execution ----------------------------------------------------------

    def run(self) -> "SimtPlan":
        entry_profiles = self.entry.profiles if self.entry is not None else None
        try:
            # Only phases that actually spawn lanes are executed (and
            # recorded), so cached profiles index by *executed* phase.
            executed = []
            for kind, section, _ in self.execution.phases:
                n, x1, x2, unit_of_lane = self._phase_lanes(kind)
                if n:
                    executed.append((section, n, x1, x2, unit_of_lane))
            if (entry_profiles is not None
                    and len(entry_profiles) != len(executed)):
                raise StaleTrace("phase count diverged from cached trace")
            for i, (section, n, x1, x2, unit_of_lane) in enumerate(executed):
                walk = _PhaseWalk(
                    self, section, n, x1, x2, unit_of_lane,
                    entry_profiles[i] if entry_profiles is not None else None,
                )
                profile = walk.run()
                # phase barrier: land buffered global stores, keeping undo
                walk.memlog.commit(self.device.physical, self.undo)
                self.profiles.append(profile)
        except BaseException:
            self.rollback()
            raise
        if self.entry is None:
            self.entry = TraceEntry(self.device.translation_version,
                                    self.engine, self.profiles)
        return self

    def rollback(self) -> None:
        """Restore every byte the aborted walk changed (reverse order)."""
        physical = self.device.physical
        for paddrs, rows in reversed(self.undo):
            physical.scatter_rows(paddrs, rows)
        self.undo.clear()
        self.spad_shadows.clear()

    def commit(self) -> None:
        """Launch success: write scratchpad shadows back, flush counters."""
        stats = self.device.stats
        unit_base = self.execution.unit_base
        for shadow in self.spad_shadows.values():
            shadow.commit()
        for profile in self.profiles:
            for unit, (reads, writes, atomics, bytes_) in (
                    profile.spad_counters.items()):
                prefix = f"unit{unit_base + unit}.spad"
                if reads:
                    stats.add(f"{prefix}.reads", reads)
                if writes:
                    stats.add(f"{prefix}.writes", writes)
                if atomics:
                    stats.add(f"{prefix}.atomics", atomics)
                if bytes_:
                    stats.add(f"{prefix}.bytes", bytes_)
            if profile.atomics:
                stats.add("ndp.global_atomics", profile.atomics)
        self.undo.clear()

    # -- timing -------------------------------------------------------------

    def schedule(self, now_ns: float, cached: bool) -> None:
        """Charge the launch analytically and schedule its completion."""
        device = self.device
        cfg = device.config.ndp
        stats = device.stats
        period = cfg.clock.period_ns
        num_units = self.execution.num_units
        subcores = cfg.subcores_per_unit
        t = max(now_ns, device.sim.now)
        tail = LaunchTail(device, self.execution, "exec.simt",
                          t + SPAWN_LATENCY_NS, phases=len(self.profiles),
                          trace_cache="hit" if cached else "miss")
        bank = device.issue_bank
        slots_per_unit = self.execution.slots_per_unit
        granularity = tail.units[0].occupancy.subcores[0].spawn_granularity
        total_instructions = 0
        total_lanes = 0

        for profile in self.profiles:
            start = t + SPAWN_LATENCY_NS
            n = profile.n
            total_instructions += profile.lane_instructions
            total_lanes += n

            # --- issue-throughput bound + bulk sub-core pressure ---------
            # Spread the launch's *exact* op totals across the sub-cores
            # (remainders one op at a time, unit 0 first — where a tiny
            # launch's lanes actually sit) instead of ceil-ing per
            # sub-core, which would charge a one-µthread kvstore launch
            # ~128x its real instruction count.
            n_sub = num_units * subcores
            compute_ns = float(
                (profile.ops / n_sub * period / bank.widths).max())
            base, rem = np.divmod(profile.ops, n_sub)
            bank.charge(
                self.execution.unit_base, num_units, start,
                (base + (np.arange(n_sub)[:, None] < rem)).reshape(
                    num_units, subcores, -1))

            # --- traffic stats -------------------------------------------
            if profile.global_bytes:
                stats.add("ndp.global_traffic_bytes", profile.global_bytes)
                stats.add("ndp.global_accesses", profile.global_accesses)
            if profile.spad_bytes:
                stats.add("ndp.spad_traffic_bytes", profile.spad_bytes)

            # --- latency floor: per-unit chunked-wave model --------------
            lat = profile.lat_cycles * period + profile.mem_lat
            floor = _latency_floor(lat, profile.unit_of_lane,
                                   slots_per_unit, granularity)
            window = max(compute_ns, floor, period)

            # --- memory-system bound: sector stream through L2/DRAM ------
            ratio = min(int(profile.unit_of_lane.size and np.bincount(
                profile.unit_of_lane, minlength=num_units).max()),
                slots_per_unit) / slots_per_unit
            t = tail.pace(start, window, n, ratio, profile,
                          phase_span="exec.simt.phase")

        tail.schedule(t, total_instructions, total_lanes)


def _latency_floor(lat: np.ndarray, unit_of_lane: np.ndarray,
                   slots_per_unit: int, granularity: int) -> float:
    """Serial-latency floor of one phase under FGMT occupancy.

    Lanes land on their unit in spawn order and occupy µthread slots in
    groups of ``granularity`` (the Fig 12a "w/o fine-grained" ablation:
    a group's slots free only when its *slowest* lane finishes, so
    coarse spawning serializes behind stragglers).  Each unit's floor is
    the busiest slot-group's summed group latencies; with ``granularity
    == 1`` and uniform lanes this reduces to the classic
    ``waves x thread latency`` bound.
    """
    floor = 0.0
    g = max(1, min(granularity, slots_per_unit))
    groups = max(slots_per_unit // g, 1)
    for u in np.unique(unit_of_lane):
        unit_lat = lat[unit_of_lane == u]
        k = unit_lat.size
        if not k:
            continue
        pad = (-k) % g
        if pad:
            unit_lat = np.concatenate([unit_lat, np.zeros(pad)])
        chunks = unit_lat.reshape(-1, g).max(axis=1)
        c = chunks.size
        pad2 = (-c) % groups
        if pad2:
            chunks = np.concatenate([chunks, np.zeros(pad2)])
        busy = chunks.reshape(-1, groups).sum(axis=0)
        floor = max(floor, float(busy.max()))
    return floor
