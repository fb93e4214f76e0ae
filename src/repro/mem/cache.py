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
from repro.sim.workspace import SHARED_INTS, Workspace
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

    ``hit_mask`` marks the batch positions that hit; every other one's
    sector must be supplied by the next level.  ``wb_idx``/``wb_addrs`` pair each dirty evicted sector with
    the batch position of the allocation that evicted it, so the caller
    can interleave writeback traffic at the right time.  The three arrays
    are the cache's working arrays: valid until its next batch.
    """

    hit_mask: np.ndarray
    wb_idx: np.ndarray
    wb_addrs: np.ndarray


_NONE = np.empty(0, dtype=np.int64)     # no writebacks (never written)


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
    are lazy and done once: :meth:`touches`, and :meth:`placement` per
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
        self._touches: tuple | None = None
        self._placements: dict[int, tuple] = {}

    @cached_property
    def page_count(self) -> int:
        """Distinct translation pages (:mod:`repro.ndp.tlb`) the stream
        touches: one on-chip TLB fill each."""
        from repro.ndp.tlb import PAGE_SHIFT    # repro.ndp imports this module
        return int(np.unique(self.addrs >> PAGE_SHIFT).size)

    def touches(self, workspace: Workspace) -> tuple:
        """In this order — per access: ``bit`` (the sector's bit in its
        line), ``repeat`` (an earlier access touched the sector),
        ``line_inv`` (its line, numbered by ascending address); the
        ``write_count``; per line: ``valid_or`` / ``dirty_or`` (sectors
        touched / written), ``first_occ`` / ``last_touch`` (positions).
        Derived on the first call, with the stream-length temporaries in
        ``workspace``."""
        if self._touches is not None:
            return self._touches
        n = self.addrs.size
        spl = self.line_bytes // self.sector_bytes
        sector_ids, order, by_sector, count = workspace.take(
            SHARED_INTS[2], n, np.int64, rows=4)
        np.floor_divide(self.addrs, self.sector_bytes, out=sector_ids)
        # one stable sort groups the accesses by sector, and so by line:
        # a sector's first access is the head of its group
        workspace.argsort(sector_ids, int(sector_ids.max()) + 1 if n else 1,
                          order)
        sector_ids.take(order, out=by_sector, mode="clip")
        bit = _sector_bits(spl)[np.remainder(sector_ids, spl,
                                             out=sector_ids)]
        new_sector, new_line = workspace.take("stream.bool", n, bool, rows=2)
        new_sector[:1] = True
        np.not_equal(by_sector[1:], by_sector[:-1], out=new_sector[1:])
        by_line = np.floor_divide(by_sector, spl, out=by_sector)
        new_line[:1] = True
        np.not_equal(by_line[1:], by_line[:-1], out=new_line[1:])
        starts = np.flatnonzero(new_line)
        repeat = np.empty(n, dtype=bool)
        repeat[order] = np.logical_not(new_sector, out=new_sector)
        line_inv = np.empty(n, dtype=np.min_scalar_type(-starts.size))
        line_inv[order] = np.subtract(new_line.cumsum(out=count), 1,
                                      out=count)
        position = order.astype(np.min_scalar_type(-n))
        bit_by_line = bit[order]
        self._touches = (
            bit, repeat, line_inv, int(np.count_nonzero(self.writes)),
            np.bitwise_or.reduceat(bit_by_line, starts),
            np.bitwise_or.reduceat(bit_by_line * self.writes[order], starts),
            np.minimum.reduceat(position, starts),
            np.maximum.reduceat(position, starts))
        return self._touches

    def placement(self, num_sets: int, workspace: Workspace) -> tuple:
        """``(sets, tags, set_order)`` of the stream's lines among
        ``num_sets`` sets: each line's set and ``tag + 1``, and all lines
        by (set, first touch).  First touches are unique, so a subset
        taken in this order is in the order sorting the subset gives."""
        placed = self._placements.get(num_sets)
        if placed is None:
            *_, first_occ, _ = self.touches(workspace)
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
    state.  ``workspace`` holds :meth:`access_batch`'s working arrays (a
    fresh one if None; a device passes its simulator's).
    """

    def __init__(
        self,
        config: CacheConfig,
        stats: StatsRegistry | None = None,
        stats_prefix: str = "cache",
        write_allocate: bool = True,
        write_back: bool = True,
        workspace: Workspace | None = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.prefix = stats_prefix
        self.write_allocate = write_allocate
        self.write_back = write_back
        self.sectors_per_line = config.line_bytes // config.sector_bytes
        self._num_sets = config.num_sets
        self._bits = _sector_bits(self.sectors_per_line)
        self._work = workspace if workspace is not None else Workspace()
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
        # the same four arrays flat (the batch path's fancy indexes), and
        # as memoryviews: the scalar path reads and writes them as Python
        # ints, without numpy's per-scalar cost
        self._flat = tuple(state.reshape(-1) for state in
                           (self._tag, self._valid, self._dirty, self._stamp))
        self._ftag, self._fvalid, self._fdirty, self._fstamp = (
            memoryview(state) for state in self._flat)

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
        configurations keep the scalar path.  The working arrays, the
        result's included, come from the cache's workspace: the result is
        valid until its next batch.
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
        work = self._work
        ways = cfg.ways
        tag, valid, dirty, stamp_of = self._flat
        sets, tags, set_order = stream.placement(self._num_sets, work)
        (bit, repeat, line_inv, write_count,
         valid_or, dirty_or, first_occ, last_touch) = stream.touches(work)
        lines = sets.size
        # the stream keeps its index arrays narrow, and numpy indexes with
        # int64 ones: each is copied once here, not converted on each use
        line_sets, by_set, way, stamp = work.take(SHARED_INTS[1], lines,
                                                  np.int64, rows=4)
        line_sets[...] = sets

        # a line matches at most one way of its set: one scan finds every
        # resident line (ascending) and its way
        held = self._tag.take(line_sets, axis=0, mode="clip",
                              out=work.take(SHARED_INTS[0], ways, np.int64,
                                            rows=lines))
        match = np.equal(held, tags[:, None],
                         out=work.take("l2.match", ways, bool, rows=lines))
        resident, is_new = work.take("l2.line_flags", lines, bool, rows=2)
        np.logical_or.reduce(match, axis=1, out=resident)
        old = work.compress("l2.old", resident, work.iota(lines))
        old_at, base = work.take("l2.old_at", old.size, np.int64, rows=2)
        match.argmax(axis=1, out=way).take(old, out=old_at, mode="clip")
        line_sets.take(old, out=base, mode="clip")
        np.add(old_at, np.multiply(base, ways, out=base), out=old_at)
        bits = work.take("l2.bits", lines + n, valid.dtype)
        valid_pre, hit_bits = bits[:lines], bits[lines:]
        valid_pre[...] = 0
        valid_pre[old] = valid[old_at]
        line_index = work.take("l2.line", n, np.int64)
        line_index[...] = line_inv
        valid_pre.take(line_index, out=hit_bits, mode="clip")
        np.bitwise_and(hit_bits, bit, out=hit_bits)
        hit, write_hit = work.take("l2.hit", n, bool, rows=2)
        np.logical_or(repeat, np.not_equal(hit_bits, 0, out=hit), out=hit)
        hits = int(np.add.reduce(hit))
        write_hits = int(np.add.reduce(np.logical_and(hit, stream.writes,
                                                      out=write_hit)))
        for name, count in (
            (self._read_hits, hits - write_hits),
            (self._write_hits, write_hits),
            (self._read_misses, n - write_count - hits + write_hits),
            (self._write_misses, write_count - write_hits),
        ):
            if count:
                self.stats.add(name, count)

        stamp[...] = last_touch
        np.add(stamp, self._clock + 1, out=stamp)
        self._clock += n

        valid[old_at] |= valid_or[old]
        dirty[old_at] |= dirty_or[old]
        stamp_of[old_at] = stamp[old]

        wb_idx = wb_addrs = _NONE
        if old.size < lines:
            # new lines grouped by set, in first-touch order within a set
            by_set[...] = set_order
            resident.take(by_set, out=is_new, mode="clip")
            new = work.compress("l2.new", np.logical_not(is_new, out=is_new),
                                by_set)
            k = new.size
            new_sets, group, rank, limit = work.take(SHARED_INTS[2], k,
                                                     np.int64, rows=4)
            line_sets.take(new, out=new_sets, mode="clip")
            boundary, flags = work.take("l2.new_flags", k, bool, rows=2)
            boundary[0] = True
            np.not_equal(new_sets[1:], new_sets[:-1], out=boundary[1:])
            starts = work.compress("l2.starts", boundary, work.iota(k))
            boundary.cumsum(out=group)
            np.subtract(group, 1, out=group)
            starts.take(group, out=rank, mode="clip")
            np.subtract(work.iota(k), rank, out=rank)
            # per touched set: its number, new lines and free ways
            group_sets, count, free = work.take("l2.groups", starts.size,
                                                np.int64, rows=3)
            new_sets.take(starts, out=group_sets, mode="clip")
            np.negative(starts, out=count)
            count[:-1] += starts[1:]
            count[-1] += k
            # the batch LRU rule: free ways (stamp 0) first, then victims.
            # by_age is each touched set's ways by ascending stamp, ties in
            # way order: the ways packed under their stamps, sorted in place
            by_age = self._tag.take(group_sets, axis=0, mode="clip",
                                    out=held[:starts.size])
            np.add.reduce(np.equal(by_age, 0, out=match[:starts.size]),
                          axis=1, out=free)
            self._stamp.take(group_sets, axis=0, mode="clip", out=by_age)
            way_bits = ((ways - 1) | 1).bit_length()
            np.left_shift(by_age, way_bits, out=by_age)
            np.bitwise_or(by_age, work.iota(ways), out=by_age)
            by_age.sort(axis=1)
            by_age = np.bitwise_and(by_age, (1 << way_bits) - 1,
                                    out=by_age).reshape(-1)

            free.take(group, out=limit, mode="clip")
            evictor = work.compress(
                "l2.evictor", np.greater_equal(rank, limit, out=flags),
                work.iota(k))
            skipped = np.maximum(np.subtract(count, ways, out=count), 0,
                                 out=count).take(group, out=limit,
                                                 mode="clip")
            # each new line's row of by_age, as a flat offset
            row = np.multiply(group, ways, out=group)
            if evictor.size:
                wb_idx, wb_addrs = self._evict(evictor, new, new_sets, rank,
                                               row, by_age, tags, dirty_or,
                                               first_occ)

            # survivors (a set's last `ways` new lines) take the freed ways:
            # the way at rank - skipped of the line's by_age row
            keep = work.compress(
                "l2.keep", np.greater_equal(rank, skipped, out=flags),
                work.iota(k))
            np.add(row, np.subtract(rank, skipped, out=rank), out=row)
            at, line, value = work.take("l2.kept", keep.size, np.int64,
                                        rows=3)
            by_age.take(row.take(keep, out=at, mode="clip"), out=line,
                        mode="clip")
            new_sets.take(keep, out=at, mode="clip")
            np.add(np.multiply(at, ways, out=at), line, out=at)
            new.take(keep, out=line, mode="clip")
            tag[at] = tags.take(line, out=value, mode="clip")
            stamp_of[at] = stamp.take(line, out=value, mode="clip")
            kept_bits = work.take("l2.kept_bits", keep.size, valid.dtype)
            valid[at] = valid_or.take(line, out=kept_bits, mode="clip")
            dirty[at] = dirty_or.take(line, out=kept_bits, mode="clip")

        return BatchAccessResult(hit_mask=hit, wb_idx=wb_idx,
                                 wb_addrs=wb_addrs)

    def _evict(self, evictor, new, new_sets, rank, row, by_age, tags,
               dirty_or, first_occ) -> tuple[np.ndarray, np.ndarray]:
        """The victims of :meth:`access_batch`'s new lines at positions
        ``evictor`` of its new-line order: rank < ways evicts the way at
        that rank of the line's ``by_age`` row, rank >= ways the new line
        ``ways`` ranks earlier (both carry ``tag + 1``).  Counts them and
        returns ``(wb_idx, wb_addrs)`` of their dirty sectors."""
        work = self._work
        tag, _valid, dirty, _stamp = self._flat
        ways, spl = self.config.ways, self.sectors_per_line
        e = evictor.size
        self.stats.add(self._evictions, e)
        position, at, victim_set, earlier, victim_tag = work.take(
            "l2.victims", e, np.int64, rows=5)
        from_way = work.take("l2.from_way", e, bool)
        # a victim way: the rank, clipped to the ways (a rank past them
        # evicts a new line instead), into the line's by_age row
        rank.take(evictor, out=position, mode="clip")
        np.less(position, ways, out=from_way)
        np.minimum(position, ways - 1, out=position)
        np.add(position, row.take(evictor, out=at, mode="clip"),
               out=position)
        by_age.take(position, out=at, mode="clip")
        np.add(at, np.multiply(new_sets.take(evictor, out=victim_set,
                                             mode="clip"), ways,
                               out=position), out=at)
        # a victim new line: `ways` ranks earlier (clipped at the first)
        new.take(np.maximum(np.subtract(evictor, ways, out=position), 0,
                            out=position), out=earlier, mode="clip")
        tags.take(earlier, out=victim_tag, mode="clip")
        np.copyto(victim_tag, tag.take(at, out=position, mode="clip"),
                  where=from_way)
        victim_dirty, way_dirty = work.take("l2.victim_dirty", e,
                                            dirty.dtype, rows=2)
        dirty_or.take(earlier, out=victim_dirty, mode="clip")
        np.copyto(victim_dirty, dirty.take(at, out=way_dirty, mode="clip"),
                  where=from_way)

        sectors = np.not_equal(np.bitwise_and(
            victim_dirty[:, None], self._bits,
            out=work.take("l2.sector_bits", spl, dirty.dtype, rows=e)), 0,
            out=work.take("l2.sectors", spl, bool, rows=e))
        dirty_at = work.compress("l2.dirty_at", sectors.reshape(-1),
                                 work.iota(e * spl))
        w = dirty_at.size
        if not w:
            return _NONE, _NONE
        self.stats.add(self._writebacks, int(np.add.reduce(
            np.not_equal(victim_dirty, 0, out=from_way))))
        rows, sector = work.take("l2.dirty_rows", w, np.int64, rows=2)
        np.floor_divide(dirty_at, spl, out=rows)
        np.subtract(dirty_at, np.multiply(rows, spl, out=sector), out=sector)
        # the victim's line, and the first touch of the line evicting it
        np.subtract(victim_tag, 1, out=victim_tag)
        np.multiply(victim_tag, self._num_sets, out=victim_tag)
        victim_line = np.add(victim_tag, victim_set, out=victim_tag)
        first = work.take("l2.first_occ", first_occ.size, np.int64)
        first[...] = first_occ
        first.take(new.take(evictor, out=victim_set, mode="clip"),
                   out=earlier, mode="clip")
        wb_idx, wb_addrs = work.take("l2.writebacks", w, np.int64, rows=2)
        earlier.take(rows, out=wb_idx, mode="clip")
        victim_line.take(rows, out=wb_addrs, mode="clip")
        np.multiply(wb_addrs, self.config.line_bytes, out=wb_addrs)
        np.add(wb_addrs, np.multiply(sector, self.config.sector_bytes,
                                     out=sector), out=wb_addrs)
        return wb_idx, wb_addrs

    # ------------------------------------------------------------------

    def resident_lines(self) -> int:
        return 0 if self._tag is None else int(np.count_nonzero(self._tag))
