"""Banked DRAM timing model (Ramulator-lite).

Each channel has a set of banks with open-row state and a shared data bus.
An access is decomposed into device-granularity bursts; each burst pays

* row **hit**: tCL,
* row **miss** (bank precharged): tRCD + tCL,
* row **conflict** (wrong row open): tRP + tRCD + tCL, gated by tRC since
  the previous activate,

then occupies the channel data bus for ``burst_bytes / channel_bw``.  Banks
serialize their own accesses; different banks and channels overlap — which
is exactly the behaviour that lets many concurrent µthreads (or GPU warps)
saturate aggregate bandwidth while a single pointer-chasing thread sees the
full random-access latency.
"""

from __future__ import annotations

import numpy as np

from repro.config import DRAMConfig
from repro.errors import SimulationError
from repro.mem.layout import AddressLayout
from repro.sim.engine import segmented_queue_finish, virtual_queues_finish
from repro.sim.stats import StatsRegistry


class DRAMModel:
    """Timing model for one DRAM subsystem (all channels of one device).

    Bank state is three flat arrays indexed by ``channel *
    banks_per_channel + bank``: ``_open_row`` (-1 = precharged),
    ``_ready_ns`` (earliest time the bank accepts a command) and
    ``_last_activate_ns``; the channel data buses are a fourth,
    ``_bus_busy_until[channel]``.  :meth:`access` and :meth:`access_batch`
    read and write the same arrays.
    """

    def __init__(
        self,
        config: DRAMConfig,
        stats: StatsRegistry | None = None,
        stats_prefix: str = "dram",
    ) -> None:
        self.config = config
        self.layout = AddressLayout(config)
        self.stats = stats if stats is not None else StatsRegistry()
        self.prefix = stats_prefix
        banks = config.channels * config.banks_per_channel
        self._open_row = np.empty(banks, dtype=np.int64)
        self._ready_ns = np.empty(banks, dtype=np.float64)
        self._last_activate_ns = np.empty(banks, dtype=np.float64)
        if config.channel_bw_bytes_per_ns <= 0:
            raise SimulationError("DRAM channels need positive bandwidth")
        self._bus_busy_until = np.empty(config.channels, dtype=np.float64)
        # counter names, bound once: _burst runs per scalar burst
        self._row_hits = f"{stats_prefix}.row_hits"
        self._row_misses = f"{stats_prefix}.row_misses"
        self._row_conflicts = f"{stats_prefix}.row_conflicts"
        self._reads = f"{stats_prefix}.reads"
        self._writes = f"{stats_prefix}.writes"
        self._bytes = f"{stats_prefix}.bytes"
        self.reset()

    # ------------------------------------------------------------------

    def access(self, addr: int, size: int, now_ns: float, is_write: bool) -> float:
        """Perform a timed access; returns completion time of the last burst.

        Bursts to different banks/channels proceed in parallel, so the
        completion time is the max over per-burst completions.
        """
        completion = now_ns
        for base, grain in self.layout.split_by_access(addr, size):
            completion = max(completion, self._burst(base, grain, now_ns, is_write))
        return completion

    def _burst(self, addr: int, size: int, now_ns: float, is_write: bool) -> float:
        coords = self.layout.coordinates(addr)
        bank = coords.channel * self.config.banks_per_channel + coords.bank
        timing = self.config.timing

        start = max(now_ns, self._ready_ns.item(bank))
        open_row = self._open_row.item(bank)
        if open_row == coords.row:
            cas_done = start + timing.row_hit_ns
            self.stats.add(self._row_hits)
        else:
            gate = self._last_activate_ns.item(bank) + timing.t_rc_ns
            if open_row < 0:
                activate = max(start, gate)
                self.stats.add(self._row_misses)
            else:
                precharged = start + timing.row_conflict_extra_ns
                activate = max(precharged, gate)
                self.stats.add(self._row_conflicts)
            self._last_activate_ns[bank] = activate
            self._open_row[bank] = coords.row
            cas_done = activate + timing.row_miss_ns
        busy = self._bus_busy_until.item(coords.channel)
        finish = (cas_done if cas_done > busy else busy) \
            + size / self.config.channel_bw_bytes_per_ns
        self._bus_busy_until[coords.channel] = finish
        self._ready_ns[bank] = cas_done  # the next CAS can pipeline behind it

        self.stats.add(self._writes if is_write else self._reads)
        self.stats.add(self._bytes, size)
        return finish

    # ------------------------------------------------------------------

    def access_batch(self, addrs: np.ndarray, size: int,
                     arrivals_ns: np.ndarray,
                     is_write: np.ndarray) -> np.ndarray:
        """Bulk timed access: one burst per element, vectorized.

        Semantics mirror calling :meth:`access` element by element in
        stream order — same row hit/miss/conflict classification (the
        per-bank open-row chain), the same bank CAS pipelining and channel
        data-bus occupancy, and the same stats — solved with segmented
        max-plus recurrences instead of a Python loop per burst, bank or
        channel (the buses: one :func:`~repro.sim.engine.virtual_queues_finish`
        pass, its padded array at worst ``channels x n`` floats — 4 MB when
        16 384 bursts all pick one of 32 channels).  Each
        access must fit one device burst (``addr % granularity + size <=
        granularity``), which holds for the sector streams the batched
        execution backend charges.  The one approximation: the tRC
        activate-to-activate gate is applied between *consecutive*
        activates of a bank; an activate separated from the previous one
        by intervening row hits is not re-gated (the hits' CAS latencies
        almost always cover tRC anyway).

        Returns per-access completion times; bank and bus state are left
        exactly as a matching sequence of scalar calls would leave them.
        """
        n = int(addrs.size)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        grain = self.config.access_granularity
        timing = self.config.timing
        bursts = (addrs // grain) * grain
        channel, bank, row = self.layout.coordinates_batch(bursts)
        gid = channel * self.config.banks_per_channel + bank

        # numpy sorts keys of <= 16 bits by radix
        order = np.argsort(gid.astype(
            np.min_scalar_type(self._open_row.size - 1)), kind="stable")
        g_s = gid[order]
        row_s = row[order]
        t_s = np.asarray(arrivals_ns, dtype=np.float64)[order]
        starts = np.flatnonzero(np.diff(g_s, prepend=g_s[0] - 1))
        marker = np.zeros(n, dtype=np.int64)
        marker[starts] = 1
        seg_of = np.cumsum(marker) - 1
        touched = g_s[starts]

        # row classification along each bank's access chain
        prev_row = np.empty(n, dtype=np.int64)
        prev_row[1:] = row_s[:-1]
        prev_row[starts] = self._open_row[touched]
        hit = row_s == prev_row
        closed = np.zeros(n, dtype=bool)
        closed[starts] = prev_row[starts] < 0
        conflict = ~hit & ~closed
        miss_type = ~hit

        a = np.where(hit, timing.row_hit_ns, timing.row_miss_ns)
        a = a + np.where(conflict, timing.row_conflict_extra_ns, 0.0)
        prev_miss = np.empty(n, dtype=bool)
        prev_miss[1:] = miss_type[:-1]
        prev_miss[starts] = False
        b = a.copy()
        np.maximum(b, timing.t_rc_ns, out=b, where=miss_type & prev_miss)

        # a bank whose chain opens with an activate is tRC-gated by its
        # last activate before the batch
        init = self._ready_ns[touched]
        gated = self._last_activate_ns[touched] + timing.t_rc_ns \
            + timing.row_miss_ns - b[starts]
        np.maximum(init, gated, out=init, where=miss_type[starts])
        cas_s = segmented_queue_finish(t_s + a, b, seg_of, init)

        # write final bank state back (last access / last activate per bank)
        ends = np.append(starts[1:], n) - 1
        act_idx = np.where(miss_type, np.arange(n), -1)
        last_act = np.maximum.reduceat(act_idx, starts)
        self._open_row[touched] = row_s[ends]
        self._ready_ns[touched] = cas_s[ends]
        activated = last_act >= 0
        self._last_activate_ns[touched[activated]] = \
            cas_s[last_act[activated]] - timing.row_miss_ns

        # channel data buses, in original stream order
        cas = np.empty(n, dtype=np.float64)
        cas[order] = cas_s
        finish = virtual_queues_finish(
            cas, grain / self.config.channel_bw_bytes_per_ns, channel,
            self._bus_busy_until)

        writes = int(np.count_nonzero(is_write))
        for name, count in (
            (self._row_hits, int(np.count_nonzero(hit))),
            (self._row_misses, int(np.count_nonzero(closed))),
            (self._row_conflicts, int(np.count_nonzero(conflict))),
            (self._writes, writes),
            (self._reads, n - writes),
            (self._bytes, n * grain),
        ):
            if count:
                self.stats.add(name, count)
        return finish

    # ------------------------------------------------------------------

    @property
    def peak_bw_bytes_per_ns(self) -> float:
        return self.config.total_bw_bytes_per_ns

    def bytes_accessed(self) -> float:
        return self.stats.get(self._bytes)

    def achieved_bandwidth(self, elapsed_ns: float) -> float:
        """Average bytes/ns moved over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return self.bytes_accessed() / elapsed_ns

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of peak bandwidth achieved over ``elapsed_ns``."""
        return self.achieved_bandwidth(elapsed_ns) / self.peak_bw_bytes_per_ns

    def typical_random_latency_ns(self) -> float:
        """Closed-bank access latency + transfer of one burst (for analytic
        host models that need a scalar latency)."""
        burst_ns = self.config.access_granularity / self.config.channel_bw_bytes_per_ns
        return self.config.timing.row_miss_ns + burst_ns

    def reset(self) -> None:
        self._open_row.fill(-1)
        self._ready_ns.fill(0.0)
        self._last_activate_ns.fill(-1e18)
        self._bus_busy_until.fill(0.0)
