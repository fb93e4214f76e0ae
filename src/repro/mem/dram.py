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
from repro.sim.workspace import SHARED_INTS, Workspace
from repro.sim.stats import StatsRegistry


class DRAMModel:
    """Timing model for one DRAM subsystem (all channels of one device).

    Bank state is three flat arrays indexed by ``channel *
    banks_per_channel + bank``: ``_open_row`` (-1 = precharged),
    ``_ready_ns`` (earliest time the bank accepts a command) and
    ``_last_activate_ns``; the channel data buses are a fourth,
    ``_bus_busy_until[channel]``.  :meth:`burst` (one burst; :meth:`access`
    loops over it) and :meth:`access_batch` read and write the same
    arrays.  ``workspace`` holds :meth:`access_batch`'s working arrays
    (a fresh one if None).
    """

    def __init__(
        self,
        config: DRAMConfig,
        stats: StatsRegistry | None = None,
        stats_prefix: str = "dram",
        workspace: Workspace | None = None,
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
        # flat views of the same four arrays for the per-burst rule
        self._frow, self._fready, self._factivate, self._fbus = (
            memoryview(state) for state in
            (self._open_row, self._ready_ns, self._last_activate_ns,
             self._bus_busy_until))
        self._banks_per_channel = config.banks_per_channel
        self._grain = config.access_granularity
        self._burst_ns = self._grain / config.channel_bw_bytes_per_ns
        self._work = workspace if workspace is not None else Workspace()
        # counter names, bound once: burst runs per scalar burst
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
        completion time is the max over per-burst completions.  Every
        burst ends after ``now_ns``, so an access inside one burst (a
        sector, a DRAM-TLB entry) is that burst's completion.
        """
        if 0 < size <= self._grain - addr % self._grain:
            return self.burst(addr, now_ns, is_write)
        completion = now_ns
        for base, _grain in self.layout.split_by_access(addr, size):
            completion = max(completion, self.burst(base, now_ns, is_write))
        return completion

    def burst(self, addr: int, now_ns: float, is_write: bool) -> float:
        """The per-burst rule: the device burst (``access_granularity``
        bytes) holding ``addr``, arriving at ``now_ns``; returns when its
        data has crossed the channel bus.

        Reads and writes the bank and bus state through flat memoryviews
        of the arrays :meth:`access_batch` uses, as Python scalars.
        """
        channel, bank, row = self.layout.coordinates(addr)
        bank += channel * self._banks_per_channel
        timing = self.config.timing

        start = self._fready[bank]
        if now_ns > start:
            start = now_ns
        open_row = self._frow[bank]
        if open_row == row:
            cas_done = start + timing.row_hit_ns
            self.stats.add(self._row_hits)
        else:
            gate = self._factivate[bank] + timing.t_rc_ns
            if open_row < 0:
                activate = max(start, gate)
                self.stats.add(self._row_misses)
            else:
                precharged = start + timing.row_conflict_extra_ns
                activate = max(precharged, gate)
                self.stats.add(self._row_conflicts)
            self._factivate[bank] = activate
            self._frow[bank] = row
            cas_done = activate + timing.row_miss_ns
        busy = self._fbus[channel]
        finish = (cas_done if cas_done > busy else busy) + self._burst_ns
        self._fbus[channel] = finish
        self._fready[bank] = cas_done  # the next CAS can pipeline behind it

        self.stats.add(self._writes if is_write else self._reads)
        self.stats.add(self._bytes, self._grain)
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
        channel.  The banks: each touched bank's accesses, in stream order,
        are one segment of :func:`~repro.sim.engine.segmented_queue_finish`,
        its length read off one ``bincount``; an access is a hit, a miss or
        a conflict as one code that indexes the three latencies.  The
        buses: one :func:`~repro.sim.engine.virtual_queues_finish` pass,
        its padded array at worst ``channels x n`` floats — 4 MB when
        16 384 bursts all pick one of 32 channels.  Every array of the
        batch's length comes from the model's workspace (a device's is its
        simulator's, see :mod:`repro.sim.workspace`), filled with ``out=``;
        the bank order is one in-place sort of bank ids packed above their
        positions.  So a steady-state batch allocates nothing of its
        length, and needs no allocator setting to skip faulting pages in
        again.  Each
        access must fit one device burst (``addr % granularity + size <=
        granularity``), which holds for the sector streams the batched
        execution backend charges; the address itself is mapped, as the
        burst's would be.  The one approximation: the tRC
        activate-to-activate gate is applied between *consecutive*
        activates of a bank; an activate separated from the previous one
        by intervening row hits is not re-gated (the hits' CAS latencies
        almost always cover tRC anyway).

        Returns per-access completion times, a view of the workspace valid
        until the model's next batch; bank and bus state are left exactly
        as a matching sequence of scalar calls would leave them.
        """
        n = int(addrs.size)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        work = self._work
        timing = self.config.timing
        order, row_s, code = work.take(SHARED_INTS[1], n, np.int64,
                                       rows=3)
        t_s, a, b = work.take("dram.float", n, rows=3)
        miss_type, gate = work.take("dram.bool", n, bool, rows=2)
        # the layout divides by its interleave granule, a multiple of the
        # burst (``DRAMConfig`` checks it): no rounding to the burst first
        channel, bank, row = self.layout.coordinates_batch(addrs, work)
        gid = np.add(np.multiply(channel, self._banks_per_channel, out=code),
                     bank, out=bank)

        # stream order grouped by bank: each touched bank's chain is one
        # segment
        banks = self._open_row.size
        work.argsort(gid, banks, order)
        per_bank = np.bincount(gid, minlength=banks)
        touched = np.flatnonzero(per_bank)
        lengths = per_bank[touched]
        ends = np.cumsum(lengths) - 1
        starts = ends - (lengths - 1)
        row.take(order, out=row_s, mode="clip")
        np.asarray(arrivals_ns, dtype=np.float64).take(order, out=t_s,
                                                       mode="clip")

        # row classification along each bank's access chain: code 0 a hit,
        # 1 a miss (the bank was precharged), 2 a conflict
        prev_row = row
        prev_row[1:] = row_s[:-1]
        prev_row[starts] = self._open_row[touched]
        np.not_equal(row_s, prev_row, out=miss_type)
        code[...] = miss_type
        np.left_shift(code, 1, out=code)
        code[starts] -= prev_row[starts] < 0
        hits, misses, conflicts = np.bincount(code, minlength=3).tolist()
        np.array([timing.row_hit_ns, timing.row_miss_ns,
                  timing.row_miss_ns + timing.row_conflict_extra_ns]).take(
            code, out=a, mode="clip")
        gate[1:] = miss_type[:-1]
        gate[starts] = False
        b[...] = a
        np.maximum(b, timing.t_rc_ns, out=b,
                   where=np.logical_and(gate, miss_type, out=gate))

        # a bank whose chain opens with an activate is tRC-gated by its
        # last activate before the batch
        init = self._ready_ns[touched]
        gated = self._last_activate_ns[touched] + timing.t_rc_ns \
            + timing.row_miss_ns - b[starts]
        np.maximum(init, gated, out=init, where=miss_type[starts])
        cas_s = segmented_queue_finish(np.add(t_s, a, out=t_s), b, lengths,
                                       init, work)

        # write final bank state back (last access / last activate per bank)
        act_idx = code
        act_idx[...] = -1
        np.copyto(act_idx, work.iota(n), where=miss_type)
        last_act = np.maximum.reduceat(act_idx, starts)
        self._open_row[touched] = row_s[ends]
        self._ready_ns[touched] = cas_s[ends]
        activated = last_act >= 0
        self._last_activate_ns[touched[activated]] = \
            cas_s[last_act[activated]] - timing.row_miss_ns

        # channel data buses, in original stream order
        cas = a
        cas[order] = cas_s
        finish = virtual_queues_finish(cas, self._burst_ns, channel,
                                       self._bus_busy_until, work)

        writes = int(np.count_nonzero(is_write))
        for name, count in (
            (self._row_hits, hits),
            (self._row_misses, misses),
            (self._row_conflicts, conflicts),
            (self._writes, writes),
            (self._reads, n - writes),
            (self._bytes, n * self._grain),
        ):
            if count:
                self.stats.add(name, count)
        return finish

    # ------------------------------------------------------------------

    @property
    def peak_bw_bytes_per_ns(self) -> float:
        return self.config.total_bw_bytes_per_ns

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
