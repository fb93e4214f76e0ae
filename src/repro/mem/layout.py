"""Physical address layout: channel/bank/row interleaving.

The paper assumes fine-grained 256 B-granularity *hashed* interleaving
across memory channels (§IV-A, citing pseudo-random interleaving [114]).
This module maps physical addresses to (channel, bank, row) coordinates for
the DRAM timing model.

The hash XOR-folds the granule index so that strided access patterns do not
camp on one channel, while consecutive granules in one channel still walk
banks round-robin and fill row buffers — the combination that makes
streaming workloads hit DRAM rows and saturate all channels.
"""

from __future__ import annotations

import numpy as np

from repro.config import INTERLEAVE_GRANULE, DRAMConfig
from repro.sim.workspace import SHARED_INTS, Workspace


def _fold_hash(value: int) -> int:
    """XOR-fold the upper bits into the lower ones (pseudo-random spread)."""
    return value ^ (value >> 7) ^ (value >> 14) ^ (value >> 21)


class AddressLayout:
    """Maps physical addresses onto a :class:`DRAMConfig`'s geometry."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        self.granules_per_row = max(1, config.row_bytes // INTERLEAVE_GRANULE)
        self._channels = config.channels
        self._banks = config.banks_per_channel

    def coordinates(self, addr: int) -> tuple[int, int, int]:
        """``(channel, bank, row)`` of ``addr``: the bank is numbered within
        its channel."""
        gid = addr // INTERLEAVE_GRANULE
        channels, banks = self._channels, self._banks
        sid = gid // channels
        return (_fold_hash(gid) % channels, sid % banks,
                (sid // banks) // self.granules_per_row)

    def coordinates_batch(
        self, addrs: np.ndarray, workspace: Workspace | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`coordinates`: (channel, bank, row) int64
        arrays, so one pass over a whole sector stream replaces one Python
        call per access.  A remainder is ``x - (x // m) * m``, equal to
        numpy's ``%`` on integers and several times faster.  The arrays
        come from ``workspace`` (fresh ones without it)."""
        work = Workspace() if workspace is None else workspace
        n = addrs.size
        channels, banks = self._channels, self._banks
        sid, channel, row, spare = work.take(SHARED_INTS[0], n, np.int64,
                                             rows=4)
        np.floor_divide(addrs, INTERLEAVE_GRANULE, out=sid)   # the granule
        np.bitwise_xor(np.right_shift(sid, 7, out=channel), sid, out=channel)
        for shift in (14, 21):
            np.bitwise_xor(channel, np.right_shift(sid, shift, out=row),
                           out=channel)
        np.multiply(np.floor_divide(channel, channels, out=row), channels,
                    out=row)
        np.subtract(channel, row, out=channel)
        np.floor_divide(sid, channels, out=sid)
        np.floor_divide(sid, banks, out=row)
        bank = np.subtract(sid, np.multiply(row, banks, out=spare), out=sid)
        np.floor_divide(row, self.granules_per_row, out=row)
        return channel, bank, row

    def split_by_access(self, addr: int, size: int) -> list[tuple[int, int]]:
        """Split into device access-granularity bursts (32 B LPDDR5, 64 B DDR5)."""
        grain = self.config.access_granularity
        if size <= 0:
            return []
        first = (addr // grain) * grain
        last = ((addr + size - 1) // grain) * grain
        return [(base, grain) for base in range(first, last + grain, grain)]
