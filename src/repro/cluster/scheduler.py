"""Fan-out launch scheduling: one logical launch → per-device sub-launches.

The paper's multi-expander mode (§III-I) launches "one kernel per device"
over software-partitioned data.  :class:`LaunchScheduler` automates that
split: given a launch's pool region and the pool allocation's
:class:`~repro.cluster.placement.ShardMap`, it cuts the region into
stride-aligned work chunks along ownership boundaries and assigns each
chunk to a device under one of three policies:

``locality``
    Follow the shard — each chunk runs on the device that owns its bytes
    (round-robin for replicated data, which is local everywhere).  Zero
    P2P traffic by construction.
``round_robin``
    Chunk *k* goes to device ``k % N`` regardless of ownership.  Matches
    locality on interleaved pools; on blocked pools it trades switch
    traffic for issue simplicity.
``least_outstanding``
    Each chunk goes to the device with the fewest outstanding sub-launches
    (live queue depth plus chunks already planned this call) — the classic
    load-balancer policy for heterogeneous streams.

Chunks a device does not own are charged as P2P reads through
``CXLSwitch.peer_to_peer`` by the cluster runtime before the sub-launch
starts; the plan records the required bytes per remote owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.placement import ShardMap
from repro.errors import ConfigError, DeviceUnavailable

#: Valid scheduler policy names (ClusterConfig / env validation).
SCHEDULERS = ("round_robin", "locality", "least_outstanding")


def validate_scheduler_name(name: str, source: str = "scheduler") -> str:
    """Check ``name`` against the policy list, naming the offending source."""
    if name not in SCHEDULERS:
        raise ConfigError(
            f"unknown cluster scheduler {name!r} (from {source}); "
            f"choose from {list(SCHEDULERS)}"
        )
    return name

#: A plan never exceeds this many sub-launches: finer shard maps are
#: re-chunked into even contiguous spans (the controller's concurrent-kernel
#: slots and M2func call overheads make million-chunk plans pointless).
MAX_SUBLAUNCHES = 64


@dataclass
class SubLaunch:
    """One device's share of a logical launch."""

    device: int
    base: int
    bound: int
    offset_bias: int                      # (base - logical pool base)
    remote: dict[int, int] = field(default_factory=dict)   # owner -> bytes
    #: Hardware partition the sub-launch binds to on its device (copied
    #: from the pool shard's active partition at plan time; None =
    #: unpinned: the launch goes out untagged and runs in the default
    #: partition).
    partition: str | None = None

    @property
    def size(self) -> int:
        return self.bound - self.base

    @property
    def remote_bytes(self) -> int:
        return sum(self.remote.values())


class LaunchScheduler:
    """Splits launches across ``num_devices`` under a fan-out policy."""

    def __init__(self, policy: str, num_devices: int,
                 max_sublaunches: int = MAX_SUBLAUNCHES) -> None:
        validate_scheduler_name(policy)
        if num_devices <= 0:
            raise ConfigError("scheduler needs at least one device")
        self.policy = policy
        self.num_devices = num_devices
        self.max_sublaunches = max_sublaunches
        #: Live sub-launches per device, maintained by the cluster runtime.
        self.outstanding = [0] * num_devices
        #: Routability mask: False for DOWN or draining devices.  All-True
        #: for a healthy cluster, in which case assignment is identical to
        #: the fault-free scheduler.
        self.routable = [True] * num_devices
        self.num_routable = num_devices
        # Round-robin position persists *across* plan() calls: a stream of
        # single-chunk launches (KVStore GETs) must still spread over the
        # cluster instead of all landing on device 0.
        self._cursor = 0

    # ------------------------------------------------------------------
    # bookkeeping hooks (called by ClusterRuntime)
    # ------------------------------------------------------------------

    def note_issued(self, device: int) -> None:
        self.outstanding[device] += 1

    def note_complete(self, device: int) -> None:
        self.outstanding[device] -= 1

    def set_routable(self, device: int, ok: bool) -> bool:
        """Mark ``device`` (un)routable (DOWN device, planned drain);
        returns True when the mask actually changed."""
        if not 0 <= device < self.num_devices:
            raise ConfigError(f"no device {device} to (un)route")
        if self.routable[device] == ok:
            return False
        self.routable[device] = ok
        self.num_routable += 1 if ok else -1
        return True

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(self, shard: ShardMap | None, pool_base: int, pool_bound: int,
             stride: int) -> list[SubLaunch]:
        """Cut [pool_base, pool_bound) into assigned sub-launches.

        ``shard`` is the pool allocation's map (None for pools outside any
        cluster allocation — treated as replicated).  Chunk edges are
        stride-aligned relative to ``pool_base`` so every µthread slice
        lands in exactly one sub-launch.
        """
        if pool_bound <= pool_base:
            raise ConfigError(
                f"empty pool region [{pool_base:#x}, {pool_bound:#x})"
            )
        if self.num_routable == 0:
            raise DeviceUnavailable(
                "no routable device for launch (all DOWN or draining)",
                devices=tuple(range(self.num_devices)),
            )
        # Every sub-launch of a partition-pinned pool binds to the shard's
        # active partition — placement can never produce a cross-partition
        # launch because the partition is decided once, at the pool level.
        partition = shard.active_partition if shard is not None else None
        if self.num_devices == 1:
            return [SubLaunch(device=0, base=pool_base, bound=pool_bound,
                              offset_bias=0, partition=partition)]
        chunks = self._chunks(shard, pool_base, pool_bound, stride)
        planned = [0] * self.num_devices
        subs: list[SubLaunch] = []
        for owner, lo, hi in chunks:
            device = self._assign(owner, planned)
            planned[device] += 1
            remote = (shard.remote_bytes(lo, hi, device)
                      if shard is not None else {})
            if subs and subs[-1].device == device and subs[-1].bound == lo:
                last = subs[-1]
                last.bound = hi
                for own, nbytes in remote.items():
                    last.remote[own] = last.remote.get(own, 0) + nbytes
            else:
                subs.append(SubLaunch(device=device, base=lo, bound=hi,
                                      offset_bias=lo - pool_base,
                                      remote=remote, partition=partition))
        return subs

    # ------------------------------------------------------------------

    def _assign(self, owner: int, planned: list[int]) -> int:
        if self.policy == "locality" and owner >= 0 and self.routable[owner]:
            return owner
        if self.policy == "least_outstanding":
            return min(
                (d for d in range(self.num_devices) if self.routable[d]),
                key=lambda d: (self.outstanding[d] + planned[d], d),
            )
        # round_robin, locality over replicated/unmapped chunks, and the
        # fallback when a chunk's owner is not routable
        while True:
            device = self._cursor % self.num_devices
            self._cursor += 1
            if self.routable[device]:
                return device

    def _chunks(self, shard: ShardMap | None, lo: int, hi: int,
                stride: int) -> list[tuple[int, int, int]]:
        """(owner, lo, hi) work chunks with stride-aligned edges."""
        segments = (shard.owner_segments(lo, hi)
                    if shard is not None else [(-1, lo, hi)])
        # Ownership runs that are local everywhere (replicated) are split
        # into one even span per device so all expanders contribute.
        expanded: list[tuple[int, int, int]] = []
        for owner, seg_lo, seg_hi in segments:
            if owner >= 0:
                expanded.append((owner, seg_lo, seg_hi))
                continue
            expanded.extend(self._even_spans(seg_lo, seg_hi, stride))
        chunks = self._realign(expanded, lo, hi, stride)
        if len(chunks) > self.max_sublaunches:
            # Too fine a shard map: fall back to one even span per device
            # (correctness is unaffected; remote bytes are still charged).
            chunks = self._realign(
                list(self._even_spans(lo, hi, stride)), lo, hi, stride
            )
        return chunks

    def _even_spans(self, lo: int, hi: int, stride: int):
        threads = -(-(hi - lo) // stride)
        per_dev = -(-threads // self.num_devices) * stride
        cursor = lo
        for _ in range(self.num_devices):
            if cursor >= hi:
                break
            end = min(cursor + per_dev, hi)
            yield (-1, cursor, end)
            cursor = end

    @staticmethod
    def _realign(chunks: list[tuple[int, int, int]], lo: int, hi: int,
                 stride: int) -> list[tuple[int, int, int]]:
        """Snap interior chunk edges down to stride multiples from ``lo``."""
        out: list[tuple[int, int, int]] = []
        cursor = lo
        for owner, _c_lo, c_hi in chunks:
            edge = hi if c_hi >= hi else lo + (c_hi - lo) // stride * stride
            if edge <= cursor:
                continue
            out.append((owner, cursor, edge))
            cursor = edge
        if cursor < hi:
            if out:
                owner, last_lo, _ = out[-1]
                out[-1] = (owner, last_lo, hi)
            else:
                out.append((-1, lo, hi))
        return out
