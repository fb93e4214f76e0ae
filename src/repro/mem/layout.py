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
        self, addrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`coordinates`: (channel, bank, row) arrays, so
        one pass over a whole sector stream replaces one Python call per
        access.  A remainder is ``x - (x // m) * m``, equal to numpy's
        ``%`` on integers and several times faster."""
        channels, banks = self._channels, self._banks
        gid = addrs // INTERLEAVE_GRANULE
        folded = gid ^ (gid >> 7) ^ (gid >> 14) ^ (gid >> 21)
        channel = folded - (folded // channels) * channels
        sid = gid // channels
        sid_row = sid // banks
        return (channel, sid - sid_row * banks,
                sid_row // self.granules_per_row)

    def split_by_access(self, addr: int, size: int) -> list[tuple[int, int]]:
        """Split into device access-granularity bursts (32 B LPDDR5, 64 B DDR5)."""
        grain = self.config.access_granularity
        if size <= 0:
            return []
        first = (addr // grain) * grain
        last = ((addr + size - 1) // grain) * grain
        return [(base, grain) for base in range(first, last + grain, grain)]
