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

# (seed, ways, sets, footprint / capacity, pattern) -> sha256
GOLDENS = {
    (11, 2, 2, 2, "random"):
        "f82346a1bac42c6999f79d64fd38c4d48ce36fd79693a4ae6aad4d663e0aaab5",
    (12, 2, 16, 6, "random"):
        "e19e85b2bc5ca8237137139e11cc7080ead13016a24367de933de537b1ea790b",
    (13, 4, 4, 2, "random"):
        "9f52e897e2d4a1dcac36522df92f9f1f4f9f2fa404e08a5ec0fb2b47d20b30ed",
    (14, 4, 8, 6, "random"):
        "54a340f1cb3a8b034b0e712472cb18da6aef76fa6a5b10f0a91ab174b58e846c",
    (15, 8, 2, 20, "random"):
        "41e526038e689e4c373171e33c9569cbdb60b96441201f432c3a154f506899a0",
    (16, 8, 16, 2, "random"):
        "40036f11d35d332fd52fcb30b7c7976c9687a540b712358f1cac30f6bfd8c070",
    (17, 4, 16, 20, "random"):
        "28798feee3fad296b07da2b96ff9359420ded0b29fb3ed17bff26ff457d8efd8",
    (21, 2, 4, 6, "sequential"):
        "490ec94f62583e82983791bf183fea10c6d8d422fb770773e14f9efe0f18bf6b",
    (22, 4, 2, 2, "sequential"):
        "24382b33e9d092ff77152b4f77915b1639fcf9ab0f08b3e961da1d79502bffc3",
    (23, 4, 16, 6, "sequential"):
        "a4b0c829bf3ed6dd1180135bf23fddcaa6237cb7c29f98e4dfed42e58a34b8db",
    (24, 8, 4, 20, "sequential"):
        "748384c13214da45ce900d1726fd4556e4c07368206d2e1b6521eb95ff5cf183",
    (25, 8, 8, 2, "sequential"):
        "b8c6cffcb51beab4573f9e74e84b61e6eb3fd999fa47600eacb0c1b9062b3c4f",
}


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
                    res.fill_idx.astype(np.int64),
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


@pytest.mark.parametrize("case", sorted(GOLDENS), ids=lambda c: "-".join(map(str, c)))
def test_batch_eviction_matches_recorded_golden(case):
    assert _digest(*case) == GOLDENS[case]
