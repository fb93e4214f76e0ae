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
* the launch's deduplicated, proportionally merged sector stream plus
  page footprint.

A cache hit re-runs only the numpy functional replay (data may have
changed — outputs must stay byte-identical) and verifies each step's
address vector against the cached one; the sector derivation, stream
merge and trace bookkeeping are skipped, and the timing fill-in charges
the cached stream through the live L2/DRAM servers.  Launch-uniform
walks cache :class:`TraceEntry`; masked SIMT launches (divergent /
atomic / phased kernels, which used to bypass the cache entirely via
interpreter fallback) cache :class:`SimtTraceEntry`, whose per-phase
profiles include every memory step's recorded *mask schedule*.  Any
divergence — different addresses, different control flow or active-lane
masks, a remapped page (the device's ``translation_version``) —
invalidates the entry and falls back to a full trace, so the cache can
change wall-clock time but never results.

``REPRO_TRACE_CACHE`` switches the cache off (every launch then takes
the full trace path) and ``REPRO_TRACE_CACHE_CAPACITY`` bounds the number
of retained entries (LRU); see :mod:`repro.knobs` and the README "Knobs"
table.

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

from repro import knobs
from repro.isa.encoding import FUnit

#: Distinct control-flow paths retained per point-launch family (one
#: family occupies one LRU slot; a hash-chain walk needs roughly
#: depth x first-mismatch-word paths, well under this).
MAX_POINT_PATHS = 16


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
    launch; relational branch guards + verified load bytes ensure a path
    only replays when it reproduces the launch's exact control flow.
    """
    instance = execution.instance
    return ("point", kernel_code_hash(instance.kernel.program),
            instance.uthread_stride, instance.asid, len(instance.args))


@dataclass
class PointPathEntry:
    """One recorded control-flow path of a point launch's body walk.

    ``steps`` is the ordered event stream the verified replay consumes:
    ``('mem', pre_cycles, accesses)`` items interleaved with
    ``('br', mnemonic, a_spec, b_spec, taken)`` relational guards.
    Access/operand specs are either concrete values or ``('lin', ...)``
    expressions over the live launch's ``x1``/``x2``/``x3`` bases and
    earlier load results — see :mod:`repro.exec.point` for the algebra.
    """

    translation_version: int
    steps: list
    tail_cycles: int
    trace_len: int
    fu_counts: dict
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

    @property
    def verify_bytes(self) -> int:
        """Total load bytes the replay re-checks (observability)."""
        total = 0
        for step in self.steps:
            if step[0] != "mem":
                continue
            for access in step[2]:
                if access[0] == "ld" and access[5] is not None:
                    total += len(access[5])
        return total


class PointTrieNode:
    """One node of a point family's control-flow decision trie.

    All paths of a family share step prefixes up to their first
    differing branch outcome, so the family is stored as a trie: a node
    carries the run of memory steps every path through it shares
    (``mems``), then either branches on one relational guard
    (``guard`` + ``children`` keyed by outcome) or terminates a path
    (``entry``).  Replay walks the trie once — shared prefixes are
    resolved exactly once per lane, and reaching an outcome with no
    child is a clean miss (a control path never yet recorded).
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
    """All cached paths of one structural point key (one LRU slot)."""

    translation_version: int
    root: PointTrieNode = field(default_factory=PointTrieNode)
    leaves: int = 0
    #: successful replays across the family (drives latency refresh)
    replays: int = 0

    def insert(self, steps: list, entry: PointPathEntry) -> bool:
        """Merge one recorded path into the trie.

        Returns False on a structural conflict — the new path shares a
        guard-outcome prefix with a cached one but records different
        steps (e.g. different verified bytes), which deterministic
        control flow makes vanishingly rare; the caller drops the
        family and starts fresh.
        """
        if self.leaves >= MAX_POINT_PATHS:
            return True                  # full: keep the established paths
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
                node.entry = entry       # re-recorded after staleness
                return True
            else:                        # empty root: first path
                fresh = _build_trie(steps, i, entry)
                node.mems = fresh.mems
                node.guard = fresh.guard
                node.children = fresh.children
                node.entry = fresh.entry
                self.leaves += 1
                return True


@dataclass
class CachedStep:
    """One recorded memory step of the trace (all µthreads at once)."""

    is_spad: bool
    size: int
    is_write: bool
    #: virtual / physical start-address vectors of the step (global steps
    #: only); the replay verifies its freshly computed addresses against
    #: ``vaddrs`` and reuses ``paddrs``, skipping translation
    vaddrs: np.ndarray | None = None
    paddrs: np.ndarray | None = None
    #: unique sectors this step contributes to the timing stream
    sector_count: int = 0


@dataclass
class TraceEntry:
    """Everything reusable about one traced launch-uniform launch."""

    translation_version: int
    trace_len: int
    latency_cycles: int
    fu_counts: dict[FUnit, int]
    steps: list[CachedStep] = field(default_factory=list)
    merged_addrs: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    merged_writes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=bool))
    page_count: int = 0


@dataclass
class SimtTraceEntry:
    """Cached schedule of a masked SIMT launch (divergent / atomic / phased).

    ``profiles`` holds one :class:`~repro.exec.simt.SimtPhaseProfile` per
    executed phase — including every memory step's **mask schedule** (the
    per-element active-lane vector) and address vectors.  A hit re-runs the
    functional walk and verifies each step's lanes and addresses against
    the recording; any divergence (a chain grew, a branch flipped, a page
    remapped) raises :class:`StaleTrace` and the launch retraces from
    scratch, so caching divergent and atomic traces can change wall-clock
    time but never results or ``runtime_ns``.
    """

    translation_version: int
    profiles: list = field(default_factory=list)


class TraceCache:
    """Per-device LRU cache of :class:`TraceEntry` keyed by launch shape,
    switched and sized by the ``REPRO_TRACE_CACHE*`` knobs."""

    def __init__(self) -> None:
        self.enabled: bool = knobs.resolve("REPRO_TRACE_CACHE")
        self.capacity: int = knobs.resolve("REPRO_TRACE_CACHE_CAPACITY")
        self._entries: OrderedDict[tuple, TraceEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _fresh(self, key: tuple, translation_version: int):
        """The slot's content, touched as most recent — or None after
        dropping it because the memory layout changed under it."""
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.translation_version != translation_version:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry

    def _put(self, key: tuple, entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def lookup(self, key: tuple, translation_version: int) -> TraceEntry | None:
        """Return a fresh entry or None; stale entries are dropped here."""
        return self._fresh(key, translation_version)

    def store(self, key: tuple, entry: TraceEntry) -> None:
        if self.enabled:
            self._put(key, entry)

    def invalidate(self, key: tuple) -> None:
        """Drop a slot: a stale trace, or a whole point family (stale
        verified bytes somewhere in it)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    # -- point-launch path families (structural keys: disjoint slots) ---

    def lookup_point(self, key: tuple,
                     translation_version: int) -> PointFamily | None:
        """Fresh path-trie family for a structural point key, or None."""
        return self._fresh(key, translation_version)

    def store_point(self, key: tuple, translation_version: int,
                    entry: PointPathEntry) -> None:
        if not self.enabled:
            return
        family = self._fresh(key, translation_version)
        if family is None:
            family = PointFamily(translation_version=translation_version)
        if not family.insert(entry.steps, entry):
            # structural conflict: restart the family with the fresh path
            family = PointFamily(translation_version=translation_version)
            family.insert(entry.steps, entry)
        self._put(key, family)
