"""Cross-launch trace cache for the batched execution backend.

Tracing a launch — walking the kernel body over all µthreads while
recording its memory steps, then deriving the sector-unique address
streams the timing fill-in charges — costs far more than the numpy
functional replay itself.  But the paper's whole point is that launches
repeat: a serving workload issues the *same* kernel over the *same* pool
slices millions of times (§V's KVStore/OLAP streams), and the cluster
scheduler multiplies every logical launch into per-device sub-launches of
identical shape.  This module memoizes everything about a launch that is
a pure function of (kernel code, pool region, stride, offset bias, ASID,
argument bytes) and the device's translation state:

* the dynamic trace aggregates (per-FU instruction counts, latency sum),
* each memory step's translated address vector, and
* the launch's deduplicated, proportionally merged sector stream — a
  :class:`~repro.mem.cache.SectorStream`, which also keeps everything
  about the stream the L2 would otherwise re-derive on every charge.

A cache hit re-runs only the numpy functional replay (data may have
changed — outputs must stay byte-identical) and verifies each memory
step against the cached one; the sector derivation, stream merge and
trace bookkeeping are skipped, and the timing fill-in charges the cached
stream through the live L2/DRAM servers.  Both vectorized walks share
the payload and the verification, all defined here: one
:class:`MemStep` record per memory instruction, one :class:`StepLog`
that records or verifies them (and raises every memory-step
:class:`StaleTrace`), one :class:`PhaseProfile` per executed phase and
one :class:`TraceEntry` tagged with the recording walk.  The walks
differ only in what they put in a step: the launch-uniform walk its
compact address forms, the masked walk (divergent / atomic / phased
kernels) the per-element *mask schedule* — lanes, addresses and
scratchpad routing.  Any divergence — different addresses, control flow
or active lanes, a remapped page (the device's ``translation_version``)
— invalidates the entry and falls back to a full trace, so the cache can
change wall-clock time but never results.

:data:`TRACE_CACHE_BYTES` bounds the recorded bytes a device retains,
not its entry count: one entry of a 1 Mi-lane launch outweighs a
thousand 256-lane ones, and a device serving more small shapes than an
entry bound would evict each just before it recurs.  An entry's size is
summed once, when it is stored (:func:`recorded_bytes`); the least
recently used entries are evicted while the total exceeds the budget,
each counted in ``exec.trace_cache_evictions``, and an entry larger than
the whole budget is not kept.  A cache whose ``capacity`` is 0 keeps no
entry, so every launch takes the full trace path: that is the uncached
reference the tests compare a hit against.

Point launches (n <= lane width, :mod:`repro.exec.point`) cache
:class:`PointPathEntry` *families*: one cache slot per **structural** key
holding the distinct control-flow paths observed for that kernel shape.
Their key deliberately omits the pool base and the raw argument bytes —
the recorded path carries symbolic address/branch expressions that are
re-evaluated against the live launch, so a KVS GET for key A replays a
path recorded for key B as long as both walks take the same branches
(``exec.trace_cache_hits_generalized`` counts such hits).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.mem.cache import SectorStream

#: LRU bound on the recorded bytes retained per device.  A serving
#: device's live shapes are small (96 vecadd slices of 1 Ki elements
#: retain 15 KB each); the largest working set a figure driver replays
#: is 24 MB per device (resilience, entries up to 9.2 MB), which the
#: budget holds without an eviction.
TRACE_CACHE_BYTES = 32 << 20

#: Distinct control-flow paths retained per point-launch family (one
#: family occupies one LRU slot; a hash-chain walk needs roughly
#: depth x first-mismatch-word paths, well under this).
MAX_POINT_PATHS = 16

#: Nominal retained size of one point path: a few dozen small step tuples
#: (``PointPathEntry.steps``), charged per leaf of its family's trie.
POINT_PATH_BYTES = 4 << 10


class StaleTrace(Exception):
    """A cached trace no longer matches the launch's observed behaviour."""


def kernel_code_hash(program) -> int:
    """Structural hash of a kernel's decoded instructions, every section.

    A cached entry holds the profile of *every* executed phase, so the
    initializer, each body and the finalizer all belong in the hash (with
    their roles: ``None`` marks an absent section).  Memoized on the
    :class:`~repro.isa.assembler.KernelProgram`: cluster runtimes
    re-register the same kernel source per logical launch, producing fresh
    program objects with identical instruction streams, so the hash must
    follow content, not identity.
    """
    cached = getattr(program, "_trace_code_hash", None)
    if cached is not None:
        return cached

    def section(part):
        return None if part is None else tuple(
            (inst.mnemonic, inst.rd, inst.rs1, inst.rs2, inst.rs3, inst.imm,
             inst.target, inst.size)
            for inst in part.instructions
        )

    program._trace_code_hash = digest = hash((
        section(program.initializer),
        tuple(section(body) for body in program.bodies),
        section(program.finalizer)))
    return digest


def trace_key(execution) -> tuple:
    """Cache key for one launch: kernel identity plus launch geometry.

    The argument *bytes* are part of the key (not just their shape):
    kernels read pointers and scalars out of the argument block, so two
    launches with different arguments trace different address streams.
    """
    instance = execution.instance
    return (
        kernel_code_hash(instance.kernel.program),
        instance.pool_base,
        instance.pool_bound,
        instance.uthread_stride,
        instance.offset_bias,
        instance.asid,
        instance.args,
    )


def point_key(execution) -> tuple:
    """Structural cache key for a point launch (n <= lane width).

    The key is value-free: code hash, stride, ASID and argument-block
    *length* only.  Pool base, offset bias and the argument bytes are
    excluded because the cached path stores them symbolically (see
    :mod:`repro.exec.point`) and re-resolves them against the live
    launch; relational branch guards over affine operands ensure a path
    only replays when it reproduces the launch's exact control flow, and
    a lane whose path reads a loaded word any other way is not cached,
    so no loaded bytes are verified.
    """
    instance = execution.instance
    return ("point", kernel_code_hash(instance.kernel.program),
            instance.uthread_stride, instance.asid, len(instance.args))


@dataclass
class PointPathEntry:
    """One recorded control-flow path of a point launch's body walk.

    ``steps`` is the ordered event stream the replay consumes:
    ``('mem', pre_cycles, accesses)`` items interleaved with
    ``('br', mnemonic, a_spec, b_spec, taken)`` relational guards.
    Access/operand specs are either concrete values or ``('lin', ...)``
    expressions over the live launch's ``x1``/``x2``/``x3`` bases and
    earlier load results — see :mod:`repro.exec.point` for the algebra.
    """

    translation_version: int
    steps: list
    tail_cycles: int
    #: instructions on the path, as a row of the issue bank
    #: (``repro.ndp.subcore.FU_COLUMN``: dispatched, then per functional unit)
    ops: list
    #: (pool_base, offset_bias, args) of the recording launch — a hit
    #: from any other launch is a *generalized* hit.
    exemplar: tuple
    #: per-mem-step latency deltas recorded from the last live-charged
    #: execution of this path; replays re-apply them instead of walking
    #: the memory-system servers, refreshing periodically (see
    #: ``repro.exec.point._REFRESH_PERIOD``)
    lat: list = field(default_factory=list)
    #: precomputed ``sum(lat)`` (non-refresh replays apply the total)
    lat_sum: float = 0.0
    #: successful replays so far (observability: per-path popularity)
    replays: int = 0


class PointTrieNode:
    """One node of a point family's control-flow decision trie.

    All paths of a family share step prefixes up to their first
    differing branch outcome, so the family is stored as a trie: a node
    carries the run of memory steps every path through it shares
    (``mems``), then either branches on one relational guard
    (``guard`` + ``children`` keyed by outcome) or terminates a path
    (``entry``).  The replay compiled from the trie
    (:func:`repro.exec.point.compile_family`) resolves a shared prefix
    exactly once per lane, and reaching an outcome with no child is a
    clean miss (a control path never yet recorded).
    """

    __slots__ = ("mems", "guard", "children", "entry")

    def __init__(self) -> None:
        self.mems: list = []
        #: (mnemonic, a_spec, b_spec) of the branching guard, or None
        self.guard: tuple | None = None
        self.children: dict[bool, "PointTrieNode"] = {}
        self.entry: PointPathEntry | None = None


def _build_trie(steps: list, i: int, entry: PointPathEntry) -> PointTrieNode:
    """Chain of fresh trie nodes for a path suffix ``steps[i:]``."""
    node = PointTrieNode()
    while i < len(steps) and steps[i][0] == "mem":
        node.mems.append(steps[i])
        i += 1
    if i < len(steps):
        guard = steps[i]
        node.guard = (guard[1], guard[2], guard[3])
        node.children[guard[4]] = _build_trie(steps, i + 1, entry)
    else:
        node.entry = entry
    return node


@dataclass
class PointFamily:
    """All cached paths of one structural point key (one LRU slot).

    Replays run ``replay``, the straight-line function
    :func:`repro.exec.point.compile_family` generates from the trie: a
    leaf change (:meth:`insert`) drops it, the next replay compiles again,
    and a remapped family or one a new path conflicts with is dropped
    whole by the cache.
    ``print(family.source)`` shows the text; tracebacks and profiles name
    it by the family's own ``<point-family:…>`` file name.
    """

    translation_version: int
    #: the structural key's kernel code hash (names the generated code)
    code_hash: int = 0
    root: PointTrieNode = field(default_factory=PointTrieNode)
    leaves: int = 0
    #: successful replays across the family (drives latency refresh)
    replays: int = 0
    #: compiled trie, its text, and how often it was (re)generated
    replay: object = None
    source: str = ""
    compiles: int = 0
    #: bytes charged against the cache's budget (set by the cache)
    nbytes: int = 0

    def insert(self, steps: list, entry: PointPathEntry) -> bool:
        """Merge one recorded path into the trie.

        Returns False on a structural conflict — the new path shares a
        guard-outcome prefix with a cached one but records different
        steps (e.g. a different store literal), which deterministic
        control flow makes vanishingly rare; the caller drops the
        family and starts fresh.  With a translation-version change
        this is the only way a family is dropped: its paths verify no
        loaded bytes, so none goes stale.
        """
        if self.leaves >= MAX_POINT_PATHS:
            return True                  # full: keep the established paths
        self.replay = None               # a leaf changes: compiled lazily
        node = self.root
        i = 0
        while True:
            for mem in node.mems:
                if i >= len(steps) or steps[i] != mem:
                    return False
                i += 1
            if node.guard is not None:
                if i >= len(steps):
                    return False
                step = steps[i]
                if step[0] != "br" or (step[1], step[2], step[3]) != node.guard:
                    return False
                i += 1
                child = node.children.get(step[4])
                if child is None:
                    node.children[step[4]] = _build_trie(steps, i, entry)
                    self.leaves += 1
                    return True
                node = child
            elif node.entry is not None:
                if i != len(steps):
                    return False
                node.entry = entry       # the same path, walked again
                return True
            else:                        # empty root: first path
                fresh = _build_trie(steps, i, entry)
                node.mems = fresh.mems
                node.guard = fresh.guard
                node.children = fresh.children
                node.entry = fresh.entry
                self.leaves += 1
                return True


# ---------------------------------------------------------------------------
# recorded memory steps: one record, one log, one sector profile
# ---------------------------------------------------------------------------


@dataclass
class MemStep:
    """One memory instruction of a vectorized walk, all its lanes at once.

    The launch-uniform walk records the compact forms (``lanes`` None,
    addresses 0-d when every µthread agrees on them); the masked walk
    records one entry per element access, lane-major — its canonical AMO
    application order and the *mask schedule* a replay verifies.
    """

    op: str                     # "load" | "store" | "amo"
    size: int                   # bytes per (element) access
    #: start vaddrs the replay compares (None: not compared — the uniform
    #: walk's argument-block read, whose slot rotates per instance)
    vaddrs: np.ndarray | None
    #: translated addresses of the global accesses, reused by the replay
    paddrs: np.ndarray | None = None
    #: lane id of each element access; None = every lane in launch order
    lanes: np.ndarray | None = None
    #: scratchpad routing: None = all global, True = the argument-block
    #: read, bool array = per element
    spad: np.ndarray | bool | None = None
    #: unique sectors this step contributes to the timing stream
    sector_count: int = 0
    amo_op: str | None = None
    amo_float: bool = False


def _same(recorded, observed) -> bool:
    if recorded is None or observed is None or recorded is observed:
        return recorded is observed
    return np.array_equal(recorded, observed)


def step_sectors(paddrs: np.ndarray, size: int, sector_bytes: int) -> np.ndarray:
    """Unique sector addresses touched by one trace step, ascending.

    Reads are deduped (every unit's L1/the shared L2 would absorb the
    repeats); write-through writes are coalesced per sector — both are
    timing-neutral for the hit path, which carries no bandwidth charge.
    """
    p = np.atleast_1d(paddrs).astype(np.int64)
    first = p // sector_bytes
    last = (p + size - 1) // sector_bytes
    span = int((last - first).max()) + 1
    if span == 1:
        sectors = first
    else:
        grid = first[:, None] + np.arange(span)
        sectors = grid[grid <= last[:, None]]
    # a contiguous run of rows (a streaming step) is ascending already
    if not (sectors[1:] > sectors[:-1]).all():
        sectors = np.unique(sectors)
    return sectors * sector_bytes


def merge_streams(
    streams: list[tuple[np.ndarray, bool]],
) -> tuple[np.ndarray, np.ndarray]:
    """Proportionally interleave the per-step sector streams.

    All µthreads progress through the trace roughly together (they are
    spawned together and FGMT round-robins them), so at any instant the
    launch's memory traffic mixes *every* step's stream — e.g. column
    reads interleave with mask writes.  Merging each stream at its own
    uniform rate reproduces that mix (and its DRAM bank behaviour)
    instead of an artificially bank-friendly step-by-step sweep.
    Returns (addresses, is_write) arrays ready for the bulk charge.
    """
    if not streams:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    if len(streams) == 1:
        sectors, is_write = streams[0]
        return (np.asarray(sectors, dtype=np.int64),
                np.full(len(sectors), is_write, dtype=bool))
    positions = np.concatenate([
        (np.arange(len(sectors)) + 0.5) / max(len(sectors), 1)
        for sectors, _ in streams
    ])
    addrs = np.concatenate([sectors for sectors, _ in streams])
    writes = np.concatenate([
        np.full(len(sectors), is_write) for sectors, is_write in streams
    ])
    order = np.argsort(positions, kind="stable")
    return addrs[order].astype(np.int64, copy=False), writes[order]


class StepLog:
    """The memory side of one walk: its steps and its buffered stores.

    Without a recording the log *records*: :meth:`step` asks the caller's
    ``translate`` for the physical addresses and appends a
    :class:`MemStep`.  Given a recording it *verifies*: the walk's
    freshly computed step must equal the recorded one field for field —
    any difference raises :class:`StaleTrace` — and the recorded step
    (with its translation) is handed back, so ``translate`` is never
    called.  Every memory-step ``StaleTrace`` of both walks is raised
    here.  Either way the walk appends its global stores to ``stores``
    and they land in :meth:`commit`, once the walk (or phase) succeeded.
    """

    def __init__(self, recorded: list[MemStep] | None = None) -> None:
        self.replaying = recorded is not None
        self.steps: list[MemStep] = recorded if self.replaying else []
        #: buffered global stores: (paddrs, byte rows)
        self.stores: list[tuple[np.ndarray, np.ndarray]] = []
        self._cursor = 0
        #: sectors of recorded steps by index, each derived at most once
        self._sectors: dict[int, np.ndarray] = {}

    def step(self, op: str, size: int, vaddrs, translate=None, *,
             lanes=None, spad=None, amo_op: str | None = None,
             amo_float: bool = False) -> MemStep:
        """Record the walk's next memory step, or verify it against the
        recording; returns the step whose ``paddrs`` the walk uses."""
        if not self.replaying:
            step = MemStep(op, size, vaddrs,
                           None if translate is None else translate(),
                           lanes, spad, amo_op=amo_op, amo_float=amo_float)
            self.steps.append(step)
            return step
        if self._cursor >= len(self.steps):
            raise StaleTrace("more memory steps than the cached trace")
        step = self.steps[self._cursor]
        self._cursor += 1
        if (step.op != op or step.size != size or step.amo_op != amo_op
                or step.amo_float != amo_float):
            raise StaleTrace("memory step shape diverged from cached trace")
        if not _same(step.spad, spad):
            raise StaleTrace("scratchpad routing diverged from cached trace")
        if not _same(step.lanes, lanes):
            raise StaleTrace("active lanes diverged from cached trace")
        if not _same(step.vaddrs, vaddrs):
            raise StaleTrace(f"{op} addresses diverged from cached trace")
        return step

    def finish(self) -> None:
        """End of walk: a replay must have consumed the whole recording."""
        if self.replaying and self._cursor != len(self.steps):
            raise StaleTrace("fewer memory steps than the cached trace")

    def commit(self, physical, undo: list | None = None) -> None:
        """Land the buffered stores, saving the old bytes in ``undo``."""
        for paddrs, rows in self.stores:
            if undo is not None:
                undo.append(
                    (paddrs, physical.gather_rows(paddrs, rows.shape[-1])))
            physical.scatter_rows(paddrs, rows)

    def sectors(self, sector_bytes: int, index: int = -1) -> np.ndarray:
        """Unique sectors of recorded global step ``index`` (default: the
        one just recorded); fills its ``sector_count``."""
        index %= len(self.steps)
        sectors = self._sectors.get(index)
        if sectors is None:
            step = self.steps[index]
            sectors = self._sectors[index] = step_sectors(
                step.paddrs, step.size, sector_bytes)
            step.sector_count = int(sectors.size)
        return sectors

    def sector_profile(self, l2_config) -> SectorStream:
        """The recorded steps' global accesses, merged: the stream the
        timing fill-in charges through a device's ``l2_config`` caches."""
        streams = [
            (self.sectors(l2_config.sector_bytes, i), step.op != "load")
            for i, step in enumerate(self.steps)
            if step.paddrs is not None and step.paddrs.size
        ]
        return SectorStream(*merge_streams(streams), l2_config)


@dataclass
class PhaseProfile:
    """Everything reusable about one executed phase of a traced launch.

    ``ops`` is the phase's instruction count as a row of the issue bank
    (``repro.ndp.subcore.FU_COLUMN``: dispatched, then per functional
    unit).  The launch-uniform walk fills the first block only, with its
    compact forms: ``ops`` per µthread (every µthread runs every
    instruction; its roofline multiplies by ``n`` itself) and
    ``lat_cycles`` one number.  The masked walk counts ``ops`` over active
    lanes, keeps ``lat_cycles`` per lane and adds the rest.
    """

    n: int
    ops: np.ndarray
    stream: SectorStream        # merged sectors, charged on every (re)play
    steps: list[MemStep] = field(default_factory=list)
    instr_steps: int = 0
    lat_cycles: np.ndarray | int = 0
    # -- masked walk only --------------------------------------------------
    unit_of_lane: np.ndarray | None = None
    lane_instructions: int = 0
    mem_lat: np.ndarray | None = None
    global_bytes: int = 0
    global_accesses: int = 0
    spad_bytes: int = 0
    atomics: int = 0
    #: per-unit functional scratchpad counter deltas:
    #: unit -> (reads, writes, atomics, bytes)
    spad_counters: dict[int, tuple[int, int, int, int]] = field(
        default_factory=dict)


@dataclass
class TraceEntry:
    """Cached schedule of one traced launch: a profile per executed phase.

    ``engine`` names the walk that recorded it (``"batched"``: the
    launch-uniform walk, always one body phase; ``"simt"``: the masked
    walk); a hit is replayed by that walk and verified step by step
    through :class:`StepLog`.
    """

    translation_version: int
    engine: str
    profiles: list[PhaseProfile] = field(default_factory=list)
    #: bytes charged against the cache's budget (set by the cache)
    nbytes: int = 0


def recorded_bytes(entry: TraceEntry) -> int:
    """Bytes of the arrays a traced launch's entry retains: each memory
    step's addresses and lanes (an array shared by two fields — ``paddrs
    is vaddrs`` under identity translation — counts once), the merged
    sector stream, and the masked walk's per-lane profile arrays."""
    seen: dict[int, int] = {}
    for profile in entry.profiles:
        arrays = [profile.ops, profile.lat_cycles, profile.unit_of_lane,
                  profile.mem_lat, profile.stream.addrs,
                  profile.stream.writes]
        for step in profile.steps:
            arrays += (step.vaddrs, step.paddrs, step.lanes, step.spad)
        for array in arrays:
            if isinstance(array, np.ndarray):
                seen[id(array)] = array.nbytes
    return sum(seen.values())


class TraceCache:
    """Per-device LRU cache of :class:`TraceEntry` keyed by launch shape,
    bounded by the recorded bytes it retains (``capacity``).

    ``stats`` gets ``exec.trace_cache_evictions``: entries dropped to keep
    within the budget, an entry too large to keep at all included.
    """

    def __init__(self, stats) -> None:
        self.capacity = TRACE_CACHE_BYTES
        #: recorded bytes of the retained entries
        self.nbytes = 0
        self._stats = stats
        self._entries: OrderedDict[tuple, TraceEntry | PointFamily] = \
            OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _fresh(self, key: tuple, translation_version: int):
        """The slot's content, touched as most recent — or None after
        dropping it because the memory layout changed under it."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.translation_version != translation_version:
            self.invalidate(key)
            return None
        self._entries.move_to_end(key)
        return entry

    def _put(self, key: tuple, entry, nbytes: int) -> None:
        self.invalidate(key)
        if nbytes > self.capacity:
            self._stats.add("exec.trace_cache_evictions")
            return
        while self.nbytes + nbytes > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.nbytes -= evicted.nbytes
            self._stats.add("exec.trace_cache_evictions")
        entry.nbytes = nbytes
        self.nbytes += nbytes
        self._entries[key] = entry

    def lookup(self, key: tuple, translation_version: int) -> TraceEntry | None:
        """Return a fresh entry or None; stale entries are dropped here."""
        return self._fresh(key, translation_version)

    def store(self, key: tuple, entry: TraceEntry) -> None:
        self._put(key, entry, recorded_bytes(entry))

    def invalidate(self, key: tuple) -> None:
        """Drop a slot: a stale trace, a slot being replaced, or a whole
        point family whose translation version changed."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.nbytes -= entry.nbytes

    # -- point-launch path families (structural keys: disjoint slots) ---

    def lookup_point(self, key: tuple,
                     translation_version: int) -> PointFamily | None:
        """Fresh path-trie family for a structural point key, or None."""
        return self._fresh(key, translation_version)

    def store_point(self, key: tuple, translation_version: int,
                    entry: PointPathEntry) -> None:
        family = self._fresh(key, translation_version)
        if family is None or not family.insert(entry.steps, entry):
            # first path, or a structural conflict: start the family afresh
            family = PointFamily(translation_version, code_hash=key[1])
            family.insert(entry.steps, entry)
        self._put(key, family, family.leaves * POINT_PATH_BYTES)
