"""Host-managed device memory (HDM) coherence model.

M2NDP uses the HDM-DB model (CXL 3.0): the device tracks which HDM lines
the host may have cached and back-invalidates (BI) them before an NDP
kernel reads the data.  The paper's Fig 13b limit study makes 20–80 % of
the kernel's data dirty in the host cache and observes only a 3.1–26.5 %
slowdown, because BI round trips overlap with other µthreads' execution
and fetching dirty data from the host adds bandwidth on an otherwise-idle
link.

We model the snoop-filter decision deterministically: a line is "dirty"
when a hash of its address falls below the configured ratio, which makes
experiments reproducible without storing per-line host state.  The first
NDP touch of a dirty line pays the BI round trip (through the shared CXL
link, consuming its bandwidth); later touches see it clean.
"""

from __future__ import annotations

import numpy as np

from repro.cxl.link import CXLLink
from repro.sim.stats import StatsRegistry

LINE_BYTES = 64


def _line_hash(line_id: int) -> float:
    """Deterministic pseudo-uniform value in [0, 1) per cacheline."""
    x = (line_id * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 32
    return (x & 0xFFFFFFFF) / float(1 << 32)


class HDMCoherence:
    """Tracks host-dirty lines and charges back-invalidation costs."""

    def __init__(
        self,
        link: CXLLink | None,
        dirty_fraction: float = 0.0,
        stats: StatsRegistry | None = None,
    ) -> None:
        if not 0.0 <= dirty_fraction <= 1.0:
            raise ValueError(f"dirty fraction must be in [0,1], got {dirty_fraction}")
        self.link = link
        self.dirty_fraction = dirty_fraction
        self.stats = stats if stats is not None else StatsRegistry()
        self._invalidated: set[int] = set()

    # ------------------------------------------------------------------

    def _is_host_dirty(self, line_id: int) -> bool:
        if self.dirty_fraction <= 0.0:
            return False
        if line_id in self._invalidated:
            return False
        return _line_hash(line_id) < self.dirty_fraction

    def access(self, addr: int, size: int, now_ns: float) -> float:
        """Resolve coherence for an NDP access; returns data-ready time.

        Clean lines return immediately.  Dirty lines pay a BI snoop round
        trip over the CXL link, after which the line's up-to-date data is
        on-device and the line is marked clean for the rest of the kernel.
        """
        if self.dirty_fraction <= 0.0 or self.link is None:
            return now_ns
        ready = now_ns
        first = addr // LINE_BYTES
        last = (addr + max(size, 1) - 1) // LINE_BYTES
        for line_id in range(first, last + 1):
            if self._is_host_dirty(line_id):
                done = self.link.back_invalidate_round_trip(ready, dirty=True)
                self._invalidated.add(line_id)
                self.stats.add("hdm.back_invalidations")
                ready = done
        return ready

    def access_batch(self, addrs: np.ndarray, size: int,
                     arrivals_ns: np.ndarray) -> np.ndarray:
        """Bulk coherence resolution for a sector stream; new arrival times.

        Lines needing back-invalidation are found with a vectorized line
        hash, their BI round trips bandwidth-charged in one pass on the
        link, and only the affected elements' arrivals pushed back.  The
        sequential path threads each µthread's BIs serially; here the BI
        latency lands on the triggering access alone, which matches how
        FGMT overlaps the round trips across µthreads.
        """
        if self.dirty_fraction <= 0.0 or self.link is None or not addrs.size:
            return arrivals_ns
        first = addrs // LINE_BYTES
        last = (addrs + max(size, 1) - 1) // LINE_BYTES
        span = int((last - first).max()) + 1
        if span == 1:
            lines = first
            owner = np.arange(addrs.size)
        else:
            grid = first[:, None] + np.arange(span)
            keep = grid <= last[:, None]
            lines = grid[keep]
            owner = np.broadcast_to(
                np.arange(addrs.size)[:, None], grid.shape)[keep]
        # each line pays at most one BI per batch: later sectors of the
        # same line see it already invalidated, as in the scalar path
        _, first_idx = np.unique(lines, return_index=True)
        first_idx.sort()
        lines = lines[first_idx]
        owner = owner[first_idx]
        x = lines.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(29)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(32)
        dirty = (x & np.uint64(0xFFFFFFFF)) / float(1 << 32) \
            < self.dirty_fraction
        picked = [
            (int(line), int(own))
            for line, own in zip(lines[dirty], owner[dirty])
            if int(line) not in self._invalidated
        ]
        if not picked:
            return arrivals_ns
        arrivals = np.array(arrivals_ns, dtype=np.float64)
        bi_lines = np.array([p[0] for p in picked])
        bi_owners = np.array([p[1] for p in picked])
        ready = self.link.back_invalidate_batch(arrivals[bi_owners],
                                                dirty=True)
        np.maximum.at(arrivals, bi_owners, ready)
        self._invalidated.update(int(line) for line in bi_lines)
        self.stats.add("hdm.back_invalidations", len(picked))
        return arrivals
