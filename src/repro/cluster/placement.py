"""Sharded HDM placement across a multi-expander cluster (§III-I).

The paper scales M2NDP by putting several CXL-M2NDP expanders behind one
switch and software-partitioning the data.  This module is that software
partitioning made explicit: every cluster allocation carries a
:class:`ShardMap` describing which expander owns which bytes of the
logical range, under one of three placements:

``interleaved``
    Fixed-size chunks round-robin across the devices — the default; spreads
    any access pattern's bandwidth over all expanders.
``blocked``
    One contiguous block per device — best for pool-sweep kernels whose
    sub-launches align with the blocks (zero P2P under the locality
    scheduler).
``replicated``
    Every device holds the full range — read-mostly data (KV tables, model
    weights) that any expander must reach without a switch hop.

Addresses are *cluster-logical*: the same numeric address is valid on every
device (the platform's one allocator maps each range on all of them), so a
ShardMap is pure arithmetic over ``(addr - base)``.  The scheduler uses it
to split launches along ownership boundaries and to charge
:meth:`repro.cxl.switch.CXLSwitch.peer_to_peer` for the bytes of the
sub-launch's *pool* range held on a remote shard.  That is an
approximation: gathers from other allocations (DLRM's table, GEMV's
weights, SSSP's CSR arrays) never cross the switch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.host.api import HDMAllocator

#: Valid placement policy names (ClusterConfig validates against this).
PLACEMENTS = ("interleaved", "blocked", "replicated")

#: Shard granularity is page-sized by default; auto-sizing targets this many
#: interleaved chunks per device so sub-launch counts stay bounded.
MIN_SHARD_BYTES = 4096
AUTO_SHARDS_PER_DEVICE = 4


def auto_shard_bytes(size: int, num_devices: int) -> int:
    """Pick an interleave granularity: ~AUTO_SHARDS_PER_DEVICE chunks per
    device, never below a page."""
    target = -(-size // (num_devices * AUTO_SHARDS_PER_DEVICE))
    return max(MIN_SHARD_BYTES,
               -(-target // MIN_SHARD_BYTES) * MIN_SHARD_BYTES)


@dataclass(frozen=True)
class ShardMap:
    """Ownership map of one logical allocation across ``num_devices``."""

    base: int
    size: int
    placement: str
    num_devices: int
    shard_bytes: int
    #: Failover redirection (dead owner -> survivor), installed by
    #: recovery via :meth:`fail_over`.  The dict's *contents* mutate inside
    #: the frozen map: ownership policy is immutable, residency is not.
    #: Empty for a healthy cluster, so ownership arithmetic stays as-is.
    remap: dict[int, int] = field(default_factory=dict, compare=False)
    #: Hardware partition this allocation (and every launch over it) is
    #: pinned to, uniformly on all devices.  ``None`` = unpinned.
    partition: str | None = None
    #: Partition failover (victim -> survivor), installed by recovery via
    #: :meth:`move_partition`; mutates-in-frozen exactly like ``remap``.
    partition_remap: dict[str, str] = field(default_factory=dict,
                                            compare=False)

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; "
                f"choose from {list(PLACEMENTS)}"
            )
        if self.size <= 0 or self.num_devices <= 0 or self.shard_bytes <= 0:
            raise ConfigError("ShardMap needs positive size/devices/granule")

    @property
    def bound(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.bound

    # ------------------------------------------------------------------
    # ownership arithmetic
    # ------------------------------------------------------------------

    @property
    def block_bytes(self) -> int:
        """Per-device span under blocked placement (granule-aligned)."""
        per_dev = -(-self.size // self.num_devices)
        return -(-per_dev // self.shard_bytes) * self.shard_bytes

    def owner_of(self, addr: int) -> int:
        """Device holding the authoritative copy of ``addr``.

        Replicated ranges report device 0 (any copy is authoritative).
        """
        if not self.contains(addr):
            raise ConfigError(
                f"address {addr:#x} outside shard map "
                f"[{self.base:#x}, {self.bound:#x})"
            )
        rel = addr - self.base
        if self.placement == "interleaved":
            owner = (rel // self.shard_bytes) % self.num_devices
        elif self.placement == "blocked":
            owner = min(rel // self.block_bytes, self.num_devices - 1)
        else:
            owner = 0
        if self.remap:
            owner = self.remap.get(owner, owner)
        return owner

    def owner_segments(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """Split [lo, hi) into maximal same-owner runs: (owner, lo, hi).

        Replicated ranges return a single segment owned by ``-1`` (meaning
        "local everywhere").
        """
        if not (self.base <= lo <= hi <= self.bound):
            raise ConfigError(
                f"range [{lo:#x}, {hi:#x}) outside shard map "
                f"[{self.base:#x}, {self.bound:#x})"
            )
        if lo == hi:
            return []
        if self.placement == "replicated":
            return [(-1, lo, hi)]
        out: list[tuple[int, int, int]] = []
        cursor = lo
        granule = (self.shard_bytes if self.placement == "interleaved"
                   else self.block_bytes)
        while cursor < hi:
            owner = self.owner_of(cursor)
            rel = cursor - self.base
            run_end = self.base + (rel // granule + 1) * granule
            # blocked: the final device owns everything past its block start
            if self.placement == "blocked" and owner == self.num_devices - 1:
                run_end = hi
            run_end = min(run_end, hi)
            if out and out[-1][0] == owner:
                out[-1] = (owner, out[-1][1], run_end)
            else:
                out.append((owner, cursor, run_end))
            cursor = run_end
        return out

    def remote_bytes(self, lo: int, hi: int, device: int) -> dict[int, int]:
        """Bytes of [lo, hi) held by *other* devices: {owner: bytes}.

        This is what a sub-launch placed on ``device`` must pull over the
        switch before (or while) sweeping the range.
        """
        remote: dict[int, int] = {}
        for owner, seg_lo, seg_hi in self.owner_segments(lo, hi):
            if owner in (-1, device):
                continue
            remote[owner] = remote.get(owner, 0) + (seg_hi - seg_lo)
        return remote

    def device_bytes(self, device: int) -> int:
        """Bytes of the allocation resident on ``device`` (capacity math)."""
        if self.placement == "replicated":
            return self.size
        return sum(hi - lo for owner, lo, hi
                   in self.owner_segments(self.base, self.bound)
                   if owner == device)

    @property
    def active_partition(self) -> str | None:
        """The partition launches over this shard run in *now* (after any
        partition failovers)."""
        if self.partition is None:
            return None
        return self.partition_remap.get(self.partition, self.partition)

    def move_partition(self, survivor: str) -> bool:
        """Fail the shard's pinned partition over to ``survivor``.

        Addresses are partition-agnostic (partitions carve bandwidth and
        compute, not the byte store), so no re-materialization is needed —
        future launches simply bind to the survivor.  Returns True when
        the shard actually moved.
        """
        if self.partition is None or self.active_partition == survivor:
            return False
        self.partition_remap[self.partition] = survivor
        return True

    def fail_over(self, failed: int, survivor: int) -> int:
        """Redirect ``failed``'s bytes to ``survivor``; returns the bytes
        that must be re-materialized there (0 when the device owned
        nothing of this allocation).  Chained failures resolve: entries
        already pointing at ``failed`` are rewritten to ``survivor``.
        """
        if self.placement == "replicated":
            return 0
        moved = self.device_bytes(failed)
        if moved == 0:
            return 0
        self.remap[failed] = survivor
        for src, dst in list(self.remap.items()):
            if dst == failed:
                self.remap[src] = survivor
        return moved


@dataclass
class ClusterAllocator:
    """The :class:`ShardMap` of every live range of the cluster's one
    :class:`~repro.host.api.HDMAllocator`.

    The HDM allocator maps each range on every device; the placement
    decides which device's DRAM is *charged* for which bytes (functional
    contents are shared, see :mod:`repro.cluster.runtime`).  ``maps`` is
    kept sorted by base, so :meth:`map_for` bisects.
    """

    allocator: HDMAllocator
    num_devices: int
    default_placement: str = "interleaved"
    default_shard_bytes: int = 0          # 0 = auto per allocation
    maps: list[ShardMap] = field(default_factory=list)
    _bases: list[int] = field(default_factory=list, repr=False)

    def alloc(self, size: int, align: int = 4096,
              placement: str | None = None,
              shard_bytes: int | None = None,
              partition: str | None = None) -> ShardMap:
        placement = (placement if placement is not None
                     else self.default_placement)
        granule = (shard_bytes if shard_bytes
                   else self.default_shard_bytes
                   or auto_shard_bytes(size, self.num_devices))
        base = self.allocator.alloc(size, align)
        shard = ShardMap(base=base, size=size, placement=placement,
                         num_devices=self.num_devices, shard_bytes=granule,
                         partition=partition)
        index = bisect_left(self._bases, base)
        self._bases.insert(index, base)
        self.maps.insert(index, shard)
        return shard

    def free(self, base: int) -> None:
        """Give the range at ``base`` back and forget its map (an address
        no live range starts at raises ``LaunchError``)."""
        self.allocator.free(base)
        index = bisect_left(self._bases, base)
        if index < len(self._bases) and self._bases[index] == base:
            del self._bases[index]
            del self.maps[index]

    def map_for(self, addr: int) -> ShardMap | None:
        """The allocation containing ``addr`` (e.g. a launch's pool base)."""
        index = bisect_right(self._bases, addr) - 1
        if index >= 0 and self.maps[index].contains(addr):
            return self.maps[index]
        return None
