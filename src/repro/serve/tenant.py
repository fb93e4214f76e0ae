"""Tenant specifications and per-tenant workload state.

A :class:`TenantSpec` is the serving contract for one client population:
what work each request does (``kind``), how requests arrive
(:class:`~repro.serve.arrivals.ArrivalSpec`), the latency class and WFQ
weight, the SLO, and the admission limits.  :class:`TenantWorkload`
materializes the tenant's data in cluster HDM and turns (slice-range)
requests into concrete kernel launches — *range* launches, so the
dynamic batcher can fuse contiguous slices into one launch.

Request kinds:

``vecadd``  bandwidth-bound batched vector jobs; slices of C = A + B.
``olap``    column-scan analytics; slices of a predicate mask sweep.
``kvstore`` point GETs/SETs against a replicated hash table (one
            µthread per request; ``get_fraction`` sets the mix).
            Contiguous-slice merging never applies (every request walks
            its own bucket into its own slot), but with **scatter
            batching** (``REPRO_SERVE_SCATTER_BATCH``, default on)
            multiple same-op requests fuse into one wide launch: the
            host writes one descriptor per request (bucket pointer, key
            words, slot pointer — SETs add a preallocated node pointer)
            into a 64 B-stride staging ring and launches
            ``KVS_GET_SCATTER`` / ``KVS_SET_SCATTER`` over the ring, one
            µthread per descriptor — byte-identical results to unbatched
            dispatch, one launch's worth of machinery for the whole
            batch.  Batches never mix GETs and SETs (the two ops run
            different kernels), which the batcher enforces via each
            request's ``batch_key``.

A tenant may pin to one hardware partition (``TenantSpec.partition``):
every allocation — and therefore every launch — lands inside that
partition's sub-cores, L2 slices and DRAM channels, so a noisy neighbour
in another partition cannot touch this tenant's timing.  Unpinned
tenants (``None``) run in the cluster's default partition — on the
one-partition map, the whole device.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from repro import knobs
from repro.errors import ConfigError
from repro.host.api import pack_args
from repro.kernels.kvstore import (
    KVS_GET,
    KVS_GET_SCATTER,
    KVS_SET,
    KVS_SET_SCATTER,
)
from repro.kernels.olap import EVAL_RANGE_I32
from repro.kernels.vecadd import VECADD
from repro.serve.arrivals import ArrivalSpec, stream_rng
from repro.serve.qos import QOS_CLASSES, Request, validate_qos_class
from repro.serve.resilience import RetryPolicy
from repro.workloads import kvstore

#: Request kinds the serving tiers implement.
SERVE_KINDS = ("vecadd", "olap", "kvstore")

#: Default per-request size per kind (elements / rows / table items).
DEFAULT_SIZES = {"vecadd": 1 << 14, "olap": 1 << 15, "kvstore": 1 << 10}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract."""

    name: str
    kind: str
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    qos_class: str = "interactive"
    weight: float = 1.0
    #: Relative SLO deadline per request; inf = no SLO.
    slo_ns: float = math.inf
    #: Admission limits (0 disables each gate).
    rate_limit_rps: float = 0.0
    burst: float = 32.0
    max_queue_depth: int = 0
    #: Requests past their deadline before dispatch are dropped (counted
    #: ``expired``) instead of served uselessly late.
    drop_expired: bool = False
    #: vecadd: elements per request; olap: rows per request; kvstore:
    #: items in the tenant's table (0 = kind default).
    size: int = 0
    #: Working-set slices requests cycle through (vecadd / olap).
    slices: int = 8
    placement: str | None = None
    #: Pin every allocation (and therefore every launch) to one hardware
    #: partition.  None = unpinned.
    partition: str | None = None
    #: kvstore only: fraction of requests that are GETs (the rest are
    #: SETs that overwrite existing keys in place).
    get_fraction: float = 1.0
    #: Retry budget for launches lost to faults (default: none).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Hedged requests: > 0 issues a duplicate launch if the primary has
    #: not completed within this delay (replicated point reads only; the
    #: first completion wins).  0 disables hedging.
    hedge_delay_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SERVE_KINDS:
            raise ConfigError(
                f"unknown tenant kind {self.kind!r}; "
                f"choose from {list(SERVE_KINDS)}"
            )
        validate_qos_class(self.qos_class,
                           source=f"tenant {self.name!r} qos_class")
        if self.weight <= 0:
            raise ConfigError(f"tenant {self.name!r} needs a positive weight")
        if self.slo_ns <= 0:
            raise ConfigError(f"tenant {self.name!r} needs a positive SLO")
        if self.slices <= 0:
            raise ConfigError(f"tenant {self.name!r} needs >= 1 slice")
        if self.size < 0 or self.rate_limit_rps < 0 or self.max_queue_depth < 0:
            raise ConfigError(
                f"tenant {self.name!r}: sizes and limits must be >= 0"
            )
        if not math.isfinite(self.hedge_delay_ns) or self.hedge_delay_ns < 0:
            raise ConfigError(
                f"tenant {self.name!r}: hedge_delay_ns must be >= 0"
            )
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ConfigError(
                f"tenant {self.name!r}: get_fraction must be in [0, 1], "
                f"got {self.get_fraction}"
            )
        if self.get_fraction < 1.0 and self.kind != "kvstore":
            raise ConfigError(
                f"tenant {self.name!r}: get_fraction applies to kvstore "
                f"tenants only"
            )

    @property
    def effective_size(self) -> int:
        return self.size if self.size else DEFAULT_SIZES[self.kind]

    @property
    def total_requests(self) -> int:
        return self.arrivals.total_requests


#: Per-request staging-ring entry stride for scatter batches (the 40 B
#: descriptor padded to its own cache sector so lanes never share one).
SCATTER_ENTRY_BYTES = 64


@dataclass
class LaunchPlan:
    """Concrete kernel launch realizing one batch of requests.

    ``scatter`` marks a gather-batched point launch whose per-request
    completion times the engine reads back from the fused launch's
    per-lane timing.
    """

    kernel_id: int
    base: int
    bound: int
    args: bytes
    stride: int = 32
    scatter: bool = False


class TenantWorkload:
    """Data + request factories for one tenant on a cluster runtime."""

    def __init__(self, platform, spec: TenantSpec, seed: int) -> None:
        self.spec = spec
        self.runtime = platform.runtime
        self.gen = stream_rng(seed, spec.name)
        self._touched: set[int] = set()
        getattr(self, f"_setup_{spec.kind}")()
        # Pinned tenants resolve their partition through one anchor shard
        # so a partition failover (ShardMap remap) is visible to the
        # engine's per-partition capacity accounting.
        self._anchor_shard = None
        if spec.partition is not None:
            anchor_addr = {
                "vecadd": lambda: self.addr_a,
                "olap": lambda: self.addr_col,
                "kvstore": lambda: self.table.buckets_addr,
            }[spec.kind]()
            self._anchor_shard = self.runtime.shard_map(anchor_addr)

    @property
    def active_partition(self) -> str | None:
        """The partition this tenant's launches currently land in, after
        any fault-driven remap; None when unpinned."""
        if self._anchor_shard is None:
            return None
        return self._anchor_shard.active_partition

    # -- batching contract --------------------------------------------------

    @property
    def batchable(self) -> bool:
        """Contiguous slice ranges merge into one launch (not KVStore)."""
        return self.spec.kind != "kvstore"

    @property
    def scatter_batchable(self) -> bool:
        """Independent point requests fuse via the staging ring."""
        return self.spec.kind == "kvstore" and self._scatter_enabled

    @property
    def hedgeable(self) -> bool:
        """Point reads over replicated data may be hedged: any device can
        serve them, and the result-slot writes are idempotent, so racing
        a duplicate launch is safe."""
        return (self.spec.kind == "kvstore"
                and (self.spec.placement or "replicated") == "replicated")

    def slice_of(self, index: int) -> tuple[int, int]:
        """Working-set slice range request ``index`` covers."""
        if self.spec.kind == "kvstore":
            return (index, index + 1)     # identity: one slot per request
        s = index % self.spec.slices
        return (s, s + 1)

    def batch_group(self, index: int) -> int:
        """Fusion group for request ``index``: requests in different
        groups must never share a scatter batch (GETs and SETs run
        different kernels)."""
        if self.spec.kind != "kvstore":
            return 0
        return 0 if self.data.requests[index].is_get else 1

    # -- per-kind data setup ------------------------------------------------

    def _alloc_kw(self, default_placement: str | None = None) -> dict:
        placement = self.spec.placement or default_placement
        kw = {"placement": placement} if placement else {}
        if self.spec.partition is not None:
            kw["partition"] = self.spec.partition
        return kw

    def _setup_vecadd(self) -> None:
        n = self.spec.effective_size
        total = n * self.spec.slices
        self.a = (np.arange(total, dtype=np.int64)
                  * int(self.gen.integers(1, 9)))
        self.b = self.a[::-1].copy()
        kw = self._alloc_kw()
        self.addr_a = self.runtime.alloc_array(self.a, **kw)
        self.addr_b = self.runtime.alloc_array(self.b, **kw)
        self.addr_c = self.runtime.alloc(self.a.nbytes, **kw)
        self.kid = self.runtime.register_kernel(
            VECADD, name=f"{self.spec.name}.vecadd"
        )

    def _setup_olap(self) -> None:
        rows = self.spec.effective_size
        total = rows * self.spec.slices
        self.lo, self.hi = 100, 900
        self.column = self.gen.integers(0, 1000, total).astype(np.int32)
        kw = self._alloc_kw()
        self.addr_col = self.runtime.alloc_array(self.column, **kw)
        self.addr_mask = self.runtime.alloc(total, **kw)
        self.kid = self.runtime.register_kernel(
            EVAL_RANGE_I32, name=f"{self.spec.name}.scan"
        )

    def _setup_kvstore(self) -> None:
        # Read-mostly tables replicate by default so any expander serves
        # a GET without a switch hop.
        kw = self._alloc_kw("replicated")
        frac = self.spec.get_fraction
        requests = self.spec.total_requests
        self.data = kvstore.generate(
            self.spec.effective_size, requests,
            get_fraction=frac,
            mix_name="GET" if frac >= 1.0 else f"GET{round(frac * 100)}",
            salt=int(self.gen.integers(0, 1 << 16)),
        )
        set_indices = [i for i, r in enumerate(self.data.requests)
                       if not r.is_get]
        self.table = kvstore.setup_table(
            self.runtime, self.data,
            spare_nodes=max(1, len(set_indices)),
            placement=kw.get("placement"), partition=kw.get("partition"),
        )
        # one result slot per request; slots are verified post-run
        self.slots_addr = self.runtime.alloc(requests * 128, align=128, **kw)
        self.kid = self.runtime.register_kernel(
            KVS_GET, name=f"{self.spec.name}.get"
        )
        self._checks: list[tuple[int, int]] = []
        self._set_checks: list[int] = []
        # SETs overwrite existing keys: each SET's node (key + canonical
        # value) is host-prewritten once at setup, so re-planning a retry
        # or replaying a hedge writes identical bytes.
        self._set_node: dict[int, int] = {}
        if set_indices:
            self.set_kid = self.runtime.register_kernel(
                KVS_SET, name=f"{self.spec.name}.set"
            )
            for ordinal, i in enumerate(set_indices):
                node = self.table.spare_addr + ordinal * kvstore.NODE_BYTES
                kvstore._prewrite_node(self.runtime, node,
                                       self.data.requests[i])
                self._set_node[i] = node
        # scatter batching: a staging ring of per-request descriptors the
        # fused KVS_GET_SCATTER / KVS_SET_SCATTER launch walks, one
        # µthread per entry
        self._scatter_enabled = knobs.resolve("REPRO_SERVE_SCATTER_BATCH")
        if self._scatter_enabled:
            self.scatter_kid = self.runtime.register_kernel(
                KVS_GET_SCATTER, name=f"{self.spec.name}.get_scatter"
            )
            if set_indices:
                self.set_scatter_kid = self.runtime.register_kernel(
                    KVS_SET_SCATTER, name=f"{self.spec.name}.set_scatter"
                )
            # retried requests are re-planned into fresh ring entries, so
            # the ring is sized for the worst-case attempt count
            entries = requests * (1 + self.spec.retry.max_retries)
            self.staging_addr = self.runtime.alloc(
                entries * SCATTER_ENTRY_BYTES, align=128, **kw
            )
            self._staging_cursor = 0

    # -- launch construction ------------------------------------------------

    def plan(self, requests: list[Request]) -> LaunchPlan:
        """One launch covering a batch's merged slice range.

        Planning is side-effect free on the verification state: launches
        can fail (faults) and be re-planned on retry, so what-was-served
        bookkeeping happens in :meth:`note_served` on the success path.
        """
        spec = self.spec
        lo = min(r.slice_lo for r in requests)
        hi = max(r.slice_hi for r in requests)
        if spec.kind == "vecadd":
            off = lo * spec.effective_size * 8
            base = self.addr_a + off
            bound = self.addr_a + hi * spec.effective_size * 8
            return LaunchPlan(self.kid, base, bound,
                              pack_args(self.addr_b + off, self.addr_c + off))
        if spec.kind == "olap":
            rows = spec.effective_size
            base = self.addr_col + lo * rows * 4
            bound = self.addr_col + hi * rows * 4
            return LaunchPlan(
                self.kid, base, bound,
                pack_args(self.addr_mask + lo * rows, self.lo, self.hi),
            )
        # kvstore: one µthread per request — alone over its result slot,
        # or scatter-batched over a run of staging-ring descriptors.
        # Batches are op-homogeneous (batch_group): GETs and SETs never
        # share a launch.
        is_get = self.data.requests[requests[0].index].is_get
        if len(requests) == 1:
            (request,) = requests
            req = self.data.requests[request.index]
            bucket_ptr = self.table.buckets_addr + 8 * kvstore.hash_key(
                *req.key, self.data.buckets
            )
            slot = self.slots_addr + request.index * 128
            if is_get:
                return LaunchPlan(self.kid, slot, slot + 32,
                                  pack_args(bucket_ptr, *req.key))
            node = self._set_node[request.index]
            return LaunchPlan(self.set_kid, slot, slot + 32,
                              pack_args(bucket_ptr, *req.key, node))
        base = (self.staging_addr
                + self._staging_cursor * SCATTER_ENTRY_BYTES)
        physical = self.runtime.physical
        for i, request in enumerate(requests):
            req = self.data.requests[request.index]
            bucket_ptr = self.table.buckets_addr + 8 * kvstore.hash_key(
                *req.key, self.data.buckets
            )
            slot = self.slots_addr + request.index * 128
            if is_get:
                entry = struct.pack("<5Q", bucket_ptr, *req.key, slot)
            else:
                entry = struct.pack("<6Q", bucket_ptr, *req.key,
                                    self._set_node[request.index], slot)
            physical.write_bytes(base + i * SCATTER_ENTRY_BYTES, entry)
        self._staging_cursor += len(requests)
        return LaunchPlan(
            self.scatter_kid if is_get else self.set_scatter_kid, base,
            base + len(requests) * SCATTER_ENTRY_BYTES,
            args=b"", stride=SCATTER_ENTRY_BYTES, scatter=True,
        )

    def note_served(self, requests: list[Request]) -> None:
        """Record a successfully served batch for post-run verification.

        Called by the engine on launch completion (not at plan time):
        requests whose every launch attempt failed must not be verified —
        their slices/slots were legitimately never produced.
        """
        spec = self.spec
        if spec.kind == "kvstore":
            for request in requests:
                req = self.data.requests[request.index]
                slot = self.slots_addr + request.index * 128
                if req.is_get:
                    self._checks.append((slot, req.value_seed))
                else:
                    self._set_checks.append(slot)
            return
        for request in requests:
            self._touched.update(range(request.slice_lo, request.slice_hi))

    # -- post-run verification ----------------------------------------------

    def verify(self) -> bool:
        spec = self.spec
        if spec.kind == "vecadd":
            n = spec.effective_size
            produced = self.runtime.read_array(self.addr_c, np.int64,
                                               len(self.a))
            expected = self.a + self.b
            return all(
                np.array_equal(produced[s * n:(s + 1) * n],
                               expected[s * n:(s + 1) * n])
                for s in self._touched
            )
        if spec.kind == "olap":
            rows = spec.effective_size
            produced = self.runtime.read_array(
                self.addr_mask, np.uint8, len(self.column)
            ).astype(bool)
            expected = (self.column >= self.lo) & (self.column < self.hi)
            return all(
                np.array_equal(produced[s * rows:(s + 1) * rows],
                               expected[s * rows:(s + 1) * rows])
                for s in self._touched
            )
        physical = self.runtime.physical
        for slot, seed in self._checks:
            if (physical.read_u64(slot + 64) != 1
                    or physical.read_u64(slot) != seed):
                return False
        # Every serving SET targets an existing key, so it must report
        # "updated" (1) — an "inserted" (2) would mean an order-dependent
        # chain mutation and a broken byte-identity guarantee.
        for slot in self._set_checks:
            if physical.read_u64(slot + 64) != 1:
                return False
        return True

    def result_snapshot(self) -> bytes:
        """Raw bytes of the tenant's result region.

        Two runs that served the same requests must produce identical
        snapshots regardless of scheduling or batching — the smoke point's
        per-request-identity check.
        """
        physical = self.runtime.physical
        spec = self.spec
        if spec.kind == "vecadd":
            return bytes(physical.read_bytes(self.addr_c, self.a.nbytes))
        if spec.kind == "olap":
            return bytes(physical.read_bytes(self.addr_mask, len(self.column)))
        return bytes(
            physical.read_bytes(self.slots_addr, spec.total_requests * 128)
        )
