"""Golden digests of `SectorCache.access_batch` on overflowing streams.

Recorded from the dict-of-`_Line` implementation (commit a909096) before
the cache state moved into arrays.  Two branches of the batch eviction —
a resident line re-touched in a batch and evicted later in that same
batch, and a new line installed and evicted within one batch — are
reached by no other tier-1 test and no m2bench workload, so neither the
scalar-equivalence tests nor `sim_digest` can vouch for them; these
digests do.  The streams overflow small caches 2x / 6x / 20x over, with
scalar accesses interleaved between batches.
"""

import hashlib

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.mem.cache import SectorCache, SectorStream
from repro.sim.stats import StatsRegistry

SECTOR = 32
LINE = 128

# (seed, ways, sets, footprint / capacity, pattern)
CASES = [
    (11, 2, 2, 2, "random"),
    (12, 2, 16, 6, "random"),
    (13, 4, 4, 2, "random"),
    (14, 4, 8, 6, "random"),
    (15, 8, 2, 20, "random"),
    (16, 8, 16, 2, "random"),
    (17, 4, 16, 20, "random"),
    (21, 2, 4, 6, "sequential"),
    (22, 4, 2, 2, "sequential"),
    (23, 4, 16, 6, "sequential"),
    (24, 8, 4, 20, "sequential"),
    (25, 8, 8, 2, "sequential"),
]


def _stream(gen, pattern, footprint_sectors, n, cursor):
    if pattern == "random":
        return gen.integers(0, footprint_sectors, n), cursor
    # wrap-around sequential sweep with a random stride of 1-2 sectors
    steps = gen.integers(1, 3, n)
    ids = (cursor + np.cumsum(steps)) % footprint_sectors
    return ids, int(ids[-1])


def _digest(seed, ways, sets, multiple, pattern):
    cfg = CacheConfig("g", sets * ways * LINE, ways, LINE, SECTOR, 1.0)
    stats = StatsRegistry()
    cache = SectorCache(cfg, stats, "l2", write_allocate=True, write_back=True)
    gen = np.random.default_rng(seed)
    footprint = multiple * sets * ways * (LINE // SECTOR)
    sha = hashlib.sha256()
    cursor = 0
    for _ in range(5):
        n = int(gen.integers(footprint // 2, 3 * footprint))
        ids, cursor = _stream(gen, pattern, footprint, n, cursor)
        addrs = (ids * SECTOR).astype(np.int64)
        writes = gen.random(n) < 0.4
        res = cache.access_batch(SectorStream(addrs, writes, cfg))
        order = np.argsort(res.wb_idx, kind="stable")
        for arr in (res.hit_mask.astype(np.uint8),
                    np.flatnonzero(~res.hit_mask),
                    res.wb_idx[order].astype(np.int64),
                    res.wb_addrs[order].astype(np.int64)):
            sha.update(arr.tobytes())
            sha.update(b"|")
        # scalar accesses between batches share the same state
        for sid, w in zip(gen.integers(0, footprint, 7).tolist(),
                          (gen.random(7) < 0.5).tolist()):
            r = cache.access(sid * SECTOR, SECTOR, w)
            sha.update(repr((r.hit_sectors, r.missing_sectors,
                             r.writebacks)).encode())
        sha.update(repr(sorted(stats.counters("l2").items())).encode())
        sha.update(repr(cache.resident_lines()).encode())
    probe = (gen.integers(0, footprint, 4 * sets * ways) * SECTOR)
    res = cache.access_batch(SectorStream(
        probe, np.zeros(probe.size, dtype=bool), cfg))
    sha.update(res.hit_mask.astype(np.uint8).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_batch_eviction_matches_recorded_golden(case, golden):
    golden(_digest(*case))
