"""Set-associative sector cache (timing/tag model).

Data always lives in :class:`~repro.mem.physical.PhysicalMemory`; caches
here only track tags, valid sectors and LRU state so the timing hierarchy
knows which accesses hit and which sectors must be fetched from the next
level.  Lines are 128 B with 32 B sectors (Table IV), matching the paper's
GPU-style hierarchy: write-through, no-write-allocate L1; memory-side
write-back L2 that also performs global atomics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import CacheConfig
from repro.mem.physical import PAGE_SIZE
from repro.sim.stats import StatsRegistry


@dataclass
class AccessResult:
    """Outcome of a cache lookup.

    ``missing_sectors`` lists (sector_addr, sector_size) pairs that must be
    supplied by the next level; ``writebacks`` lists (addr, size) of dirty
    data evicted to make room.
    """

    hit_sectors: int = 0
    missing_sectors: list[tuple[int, int]] = field(default_factory=list)
    writebacks: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class BatchAccessResult:
    """Outcome of one :meth:`SectorCache.access_batch` stream.

    ``fill_idx`` are batch positions whose sector must be supplied by the
    next level (in stream order); ``wb_idx``/``wb_addrs`` pair each dirty
    evicted sector with the batch position of the allocation that evicted
    it, so the caller can interleave writeback traffic at the right time.
    """

    hit_mask: np.ndarray
    fill_idx: np.ndarray
    wb_idx: np.ndarray
    wb_addrs: np.ndarray


def _sector_bits(sectors_per_line: int) -> np.ndarray:
    """``1 << i`` per sector of a line, in the narrowest unsigned dtype."""
    return np.left_shift(
        1, np.arange(sectors_per_line, dtype=np.uint64)
    ).astype(np.min_scalar_type((1 << sectors_per_line) - 1))


class SectorStream:
    """An ordered stream of sector accesses and everything about it that
    no cache state can change.

    ``addrs[i]`` is a sector-aligned address, ``writes[i]`` whether access
    ``i`` writes it; ``config`` gives the sector and line sizes of the
    caches it is charged to.  A stream is immutable and outlives any cache
    state — no fill or eviction invalidates it — so the trace cache keeps
    one per traced phase and charges it on every replay.  Both derivations
    are lazy and done once: :attr:`touches`, and :meth:`placement` per
    *set count* (one trace-cache entry is replayed on every partition of
    its device; their L2s differ in nothing else).
    Index arrays take the narrowest signed dtype: beside its own 9 B an
    access retains 4-6 B, a line 6-10 B + 12-14 B per placement.
    """

    def __init__(self, addrs: np.ndarray, writes: np.ndarray,
                 config: CacheConfig) -> None:
        self.addrs = np.asarray(addrs, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=bool)
        self.sector_bytes = config.sector_bytes
        self.line_bytes = config.line_bytes
        self._placements: dict[int, tuple] = {}

    @cached_property
    def page_count(self) -> int:
        """Distinct pages the stream touches."""
        return int(np.unique(self.addrs // PAGE_SIZE).size)

    @cached_property
    def touches(self) -> tuple:
        """In this order — per access: ``bit`` (the sector's bit in its
        line), ``repeat`` (an earlier access touched the sector),
        ``line_inv`` (its line, numbered by ascending address); the
        ``write_count``; per line: ``valid_or`` / ``dirty_or`` (sectors
        touched / written), ``first_occ`` / ``last_touch`` (positions)."""
        n = self.addrs.size
        spl = self.line_bytes // self.sector_bytes
        sector_ids = self.addrs // self.sector_bytes
        bit = _sector_bits(spl)[sector_ids % spl]
        # one stable sort groups the accesses by sector, and so by line:
        # a sector's first access is the head of its group
        order = np.argsort(sector_ids, kind="stable")
        by_sector = sector_ids[order]
        by_line = by_sector // spl
        new_sector = np.ones(n, dtype=bool)
        np.not_equal(by_sector[1:], by_sector[:-1], out=new_sector[1:])
        new_line = np.ones(n, dtype=bool)
        np.not_equal(by_line[1:], by_line[:-1], out=new_line[1:])
        starts = np.flatnonzero(new_line)
        repeat = np.ones(n, dtype=bool)
        repeat[order[new_sector]] = False
        line_inv = np.empty(n, dtype=np.min_scalar_type(-starts.size))
        line_inv[order] = np.cumsum(new_line) - 1
        position = order.astype(np.min_scalar_type(-n))
        bit_by_line = bit[order]
        return (bit, repeat, line_inv, int(np.count_nonzero(self.writes)),
                np.bitwise_or.reduceat(bit_by_line, starts),
                np.bitwise_or.reduceat(bit_by_line * self.writes[order],
                                       starts),
                np.minimum.reduceat(position, starts),
                np.maximum.reduceat(position, starts))

    def placement(self, num_sets: int) -> tuple:
        """``(sets, tags, set_order)`` of the stream's lines among
        ``num_sets`` sets: each line's set and ``tag + 1``, and all lines
        by (set, first touch).  First touches are unique, so a subset
        taken in this order is in the order sorting the subset gives."""
        placed = self._placements.get(num_sets)
        if placed is None:
            *_, first_occ, _ = self.touches
            lines = self.addrs[first_occ] // self.line_bytes
            sets = (lines % num_sets).astype(np.min_scalar_type(-num_sets))
            placed = self._placements[num_sets] = (
                sets, lines // num_sets + 1,
                np.lexsort((first_occ, sets)).astype(first_occ.dtype))
        return placed


class SectorCache:
    """LRU set-associative sector cache.

    State is four ``[num_sets, ways]`` arrays: ``_tag`` holds ``tag + 1``
    (0 marks a free way, so a zeroed cache is empty), ``_valid`` /
    ``_dirty`` are per-line sector bitmasks in the narrowest unsigned
    dtype that holds ``sectors_per_line`` bits, and ``_stamp`` is the LRU
    clock value of the line's last touch (0 on a free way; stamps of
    occupied ways are unique).  A way's position carries no meaning.  The
    arrays are allocated, zeroed, on the first access, so a cache nothing
    uses costs nothing.  :meth:`lookup` (one sector; :meth:`access` loops
    over it) and :meth:`access_batch` are two entry points over this one
    state.
    """

    def __init__(
        self,
        config: CacheConfig,
        stats: StatsRegistry | None = None,
        stats_prefix: str = "cache",
        write_allocate: bool = True,
        write_back: bool = True,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.prefix = stats_prefix
        self.write_allocate = write_allocate
        self.write_back = write_back
        self.sectors_per_line = config.line_bytes // config.sector_bytes
        self._num_sets = config.num_sets
        self._bits = _sector_bits(self.sectors_per_line)
        # counter names, bound once: the scalar path runs per sector
        self._read_hits = f"{stats_prefix}.read_hits"
        self._write_hits = f"{stats_prefix}.write_hits"
        self._read_misses = f"{stats_prefix}.read_misses"
        self._write_misses = f"{stats_prefix}.write_misses"
        self._evictions = f"{stats_prefix}.evictions"
        self._writebacks = f"{stats_prefix}.writebacks"
        self._clock = 0
        # allocated on first access: the batched engines never touch the
        # per-unit L1s, and 32 of them per device are not free
        self._tag = self._valid = self._dirty = self._stamp = None

    def _allocate(self) -> None:
        shape = (self._num_sets, self.config.ways)
        self._tag = np.zeros(shape, dtype=np.int64)
        self._valid = np.zeros(shape, dtype=self._bits.dtype)
        self._dirty = np.zeros(shape, dtype=self._bits.dtype)
        self._stamp = np.zeros(shape, dtype=np.int64)
        # the same four arrays flat, as memoryviews: the scalar path reads
        # and writes them as Python ints, without numpy's per-scalar cost
        self._ftag, self._fvalid, self._fdirty, self._fstamp = (
            memoryview(state.reshape(-1)) for state in
            (self._tag, self._valid, self._dirty, self._stamp))

    # ------------------------------------------------------------------

    def access(self, addr: int, size: int, is_write: bool) -> AccessResult:
        """Look up every sector in [addr, addr+size); fill misses.

        All lookups come first; the caller then charges the writebacks,
        then the fills (``missing_sectors``)."""
        sector = self.config.sector_bytes
        first = (addr // sector) * sector
        last = ((addr + max(size, 1) - 1) // sector) * sector
        result = AccessResult()
        for sector_addr in range(first, last + sector, sector):
            victims = self.lookup(sector_addr, is_write)
            if victims is None:
                result.hit_sectors += 1
                if is_write and not self.write_back:
                    # write-through: data goes to next level as well
                    result.missing_sectors.append((sector_addr, sector))
                continue
            result.writebacks.extend((victim, sector) for victim in victims)
            result.missing_sectors.append((sector_addr, sector))
        return result

    def lookup(self, sector_addr: int, is_write: bool) -> tuple[int, ...] | None:
        """The per-sector rule: look up one sector-aligned address, fill
        it on a miss, and count the outcome.

        Returns None on a hit: a write-back cache absorbs it, a
        write-through one still passes a write on.  Otherwise the next
        level supplies the sector (or takes a write this cache does not
        allocate), and the return value holds the addresses of the dirty
        sectors of the line evicted to make room, each written back
        before the fill (almost always none).
        """
        if self._tag is None:
            self._allocate()
        line_id, offset = divmod(sector_addr, self.config.line_bytes)
        tag, s = divmod(line_id, self._num_sets)
        bit = 1 << (offset // self.config.sector_bytes)
        ways = self.config.ways
        base = s * ways
        ftag, fvalid, fdirty, fstamp = (self._ftag, self._fvalid,
                                        self._fdirty, self._fstamp)
        # one set as native ints: list scans beat numpy calls at <= 16 ways
        tags = ftag[base:base + ways].tolist()
        if tag + 1 in tags:
            way = base + tags.index(tag + 1)
            valid = fvalid[way]
        else:
            way, valid = -1, 0

        if valid & bit:
            self.stats.add(self._write_hits if is_write else self._read_hits)
            self._clock += 1
            fstamp[way] = self._clock
            if is_write and self.write_back:
                fdirty[way] |= bit
            return None

        self.stats.add(self._write_misses if is_write else self._read_misses)
        if is_write and not self.write_allocate:
            # no-write-allocate: forward the write, do not install the line
            return ()

        victims = ()
        if way < 0:
            if 0 in tags:
                way = base + tags.index(0)
            else:
                # the scalar LRU rule: a full set evicts its oldest stamp
                stamps = fstamp[base:base + ways].tolist()
                way = base + stamps.index(min(stamps))
                dirty = fdirty[way]
                if self.write_back and dirty:
                    sector = self.config.sector_bytes
                    line = ((ftag[way] - 1) * self._num_sets + s) \
                        * self.config.line_bytes
                    victims = tuple(line + idx * sector
                                    for idx in range(self.sectors_per_line)
                                    if dirty & (1 << idx))
                    self.stats.add(self._writebacks)
                self.stats.add(self._evictions)
                fdirty[way] = 0
            ftag[way] = tag + 1
        fvalid[way] = valid | bit
        if is_write and self.write_back:
            fdirty[way] |= bit
        self._clock += 1
        fstamp[way] = self._clock
        return victims

    # ------------------------------------------------------------------

    def access_batch(self, stream: SectorStream) -> BatchAccessResult:
        """Vectorized hit/miss classification of an ordered sector stream.

        Each element is one sector-aligned, sector-sized access.  What
        no cache state can change is the :class:`SectorStream`'s, derived
        once however often it is charged; left here are the tag match,
        the hit mask, two counts, the state writes and the eviction ranks:
        index arithmetic over the state arrays, no Python step per line,
        set or access, no sort over the stream.  The specification:

        * a sector hits if it was valid before the batch or appeared
          earlier in it; *a line touched earlier in the batch is assumed
          still resident when re-touched later* (re-touches refresh LRU
          recency, so the sequential LRU keeps them in all but adversarial
          patterns);
        * lines resident before the batch are merged and re-stamped with
          their last touch first; the batch's new lines then allocate in
          first-touch order, set by set.  A set's free ways go first;
          after that the new line of rank ``free + j`` evicts victim
          ``j`` of *one* victim order — the set's ways by ascending
          stamp (lines untouched by the batch by their old stamp, then
          re-touched ones by last touch; stamps are unique), followed by
          the set's earliest new lines, installed and evicted within the
          batch.  So when one batch pushes a set past its associativity
          several times over, *victims retire in recency order* rather
          than interleaved access-by-access;
        * a victim's dirty sectors write back at the stream position of
          the allocation that evicted it.

        The two emphasised rules are where a footprint larger than the
        cache can differ slightly from calling :meth:`access` per element;
        below capacity the two paths agree exactly.  Only meaningful for
        write-allocate write-back caches (the memory-side L2); other
        configurations keep the scalar path.
        """
        if not (self.write_allocate and self.write_back):
            raise NotImplementedError(
                "access_batch models write-allocate/write-back caches only"
            )
        cfg = self.config
        if (stream.sector_bytes, stream.line_bytes) != (
                cfg.sector_bytes, cfg.line_bytes):
            raise ValueError("stream derived for another line geometry")
        if self._tag is None:
            self._allocate()
        n = stream.addrs.size
        wb_idx = wb_addrs = np.empty(0, dtype=np.int64)
        ways = cfg.ways
        sets, tags, set_order = stream.placement(self._num_sets)
        (bit, repeat, line_inv, write_count,
         valid_or, dirty_or, first_occ, last_touch) = stream.touches

        match = self._tag[sets] == tags[:, None]
        resident = match.any(axis=1)
        way = match.argmax(axis=1)              # meaningful where resident
        valid_pre = np.where(resident, self._valid[sets, way], 0)
        hit = repeat | ((valid_pre[line_inv] & bit) != 0)
        hits = int(np.count_nonzero(hit))
        write_hits = int(np.count_nonzero(hit & stream.writes))
        for name, count in (
            (self._read_hits, hits - write_hits),
            (self._write_hits, write_hits),
            (self._read_misses, n - write_count - hits + write_hits),
            (self._write_misses, write_count - write_hits),
        ):
            if count:
                self.stats.add(name, count)

        stamp = np.add(last_touch, self._clock + 1, dtype=np.int64)
        self._clock += n

        old = np.flatnonzero(resident)
        old_at = (sets[old], way[old])
        self._valid[old_at] |= valid_or[old]
        self._dirty[old_at] |= dirty_or[old]
        self._stamp[old_at] = stamp[old]

        if old.size < sets.size:
            # new lines grouped by set, in first-touch order within a set
            new = set_order[~resident[set_order]]
            new_sets = sets[new]
            boundary = np.concatenate(([True], new_sets[1:] != new_sets[:-1]))
            starts = np.flatnonzero(boundary)
            group = np.cumsum(boundary) - 1
            rank = np.arange(new.size) - starts[group]
            group_sets = new_sets[starts]
            count = np.diff(starts, append=new.size)
            free = ways - np.count_nonzero(self._tag[group_sets], axis=1)
            # the batch LRU rule: free ways (stamp 0) first, then victims
            by_age = np.argsort(self._stamp[group_sets], axis=1,
                                kind="stable")

            evictor = np.flatnonzero(rank >= free[group])
            if evictor.size:
                # rank < ways evicts the way at that position of by_age;
                # rank >= ways evicts the new line `ways` ranks earlier
                from_way = rank[evictor] < ways
                ev = evictor[from_way]
                victim_at = (new_sets[ev], by_age[group[ev], rank[ev]])
                earlier = new[evictor[~from_way] - ways]
                victim_tag = np.empty(evictor.size, dtype=np.int64)
                victim_tag[from_way] = self._tag[victim_at]
                victim_tag[~from_way] = tags[earlier]      # both: tag + 1
                victim_dirty = np.empty(evictor.size, dtype=self._bits.dtype)
                victim_dirty[from_way] = self._dirty[victim_at]
                victim_dirty[~from_way] = dirty_or[earlier]
                self.stats.add(self._evictions, int(evictor.size))
                rows, sector = np.nonzero(victim_dirty[:, None] & self._bits)
                if rows.size:
                    self.stats.add(self._writebacks,
                                   int(np.count_nonzero(victim_dirty)))
                    victim_line = (victim_tag - 1) * self._num_sets \
                        + new_sets[evictor]
                    wb_idx = first_occ[new[evictor]][rows].astype(np.int64)
                    wb_addrs = victim_line[rows] * cfg.line_bytes \
                        + sector * cfg.sector_bytes

            # survivors (a set's last `ways` new lines) take the freed ways
            skipped = np.maximum(count - ways, 0)[group]
            keep = np.flatnonzero(rank >= skipped)
            keep_at = (new_sets[keep],
                       by_age[group[keep], rank[keep] - skipped[keep]])
            kept = new[keep]
            self._tag[keep_at] = tags[kept]
            self._valid[keep_at] = valid_or[kept]
            self._dirty[keep_at] = dirty_or[kept]
            self._stamp[keep_at] = stamp[kept]

        return BatchAccessResult(hit_mask=hit, fill_idx=np.flatnonzero(~hit),
                                 wb_idx=wb_idx, wb_addrs=wb_addrs)

    # ------------------------------------------------------------------

    def resident_lines(self) -> int:
        return 0 if self._tag is None else int(np.count_nonzero(self._tag))
