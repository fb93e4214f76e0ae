"""Tenant specifications and per-tenant workload state.

A :class:`TenantSpec` is the serving contract for one client population:
what work each request does (``kind``), how requests arrive
(:class:`~repro.serve.arrivals.ArrivalSpec`), the latency class and WFQ
weight, the SLO, and the admission limits.  :class:`TenantWorkload` is
the one object the engine talks to: a facade over the tenant's **kind
object**, which materializes the tenant's data in cluster HDM and turns
batches of requests into concrete kernel launches.  A kind is one row of
the table at the bottom of this module; nothing outside that table asks
which kind a tenant is.

Every kind answers the same contract — ``slice_of`` / ``batch_group``
(how a request is labelled for the batcher), ``plan`` (a batch's
launch), ``note_served`` / ``verify`` / ``result_snapshot`` (post-run
checking) — and names the one way its requests fuse, the workload's
``fuse`` value:

``"slices"``   requests over adjacent working-set slices merge into one
               *range* launch (see :mod:`repro.serve.batcher`).
``"scatter"``  independent point requests fuse through a staging ring of
               per-request descriptors, one µthread per descriptor.

Two kinds exist:

**Slice sweep** (``vecadd``, ``olap``) — every request sweeps one of
``slices`` equal slices of the tenant's arrays; always ``"slices"``.
The two differ only by their :class:`_Sweep` row (kernel, input arrays,
result element type, constant arguments, numpy oracle): ``vecadd`` is
the bandwidth-bound C = A + B, ``olap`` a column-scan predicate mask.

**Point store** (``kvstore``) — point GETs/SETs against a replicated
hash table, one µthread per request (``get_fraction`` sets the mix).
Slices never merge (every request walks its own bucket into its own
slot), so it fuses by ``"scatter"``: the host writes one descriptor per
request (bucket pointer, key words, slot pointer — SETs add a
preallocated node pointer) into a 64 B-stride staging ring and launches
``KVS_GET_SCATTER`` / ``KVS_SET_SCATTER`` over the ring — byte-identical
results to unbatched dispatch, one launch's worth of machinery for the
whole batch.  A one-request batch (every batch under ``max_batch=1``)
is the plain ``KVS_GET`` / ``KVS_SET`` launch over its result slot.  Batches
never mix GETs and SETs (the two ops run different kernels), which the
batcher enforces via each request's ``batch_key``.

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
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import (AT_LEAST_ONE, COUNT, FRACTION, NONNEGATIVE,
                          POSITIVE, POSITIVE_OR_INF, ConfigError, Domain,
                          check_fields, setting)
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
from repro.serve.qos import Request, validate_qos_class
from repro.serve.resilience import RetryPolicy
from repro.workloads import kvstore


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract."""

    name: str
    kind: str
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    qos_class: str = "interactive"
    weight: float = setting(POSITIVE, 1.0)
    #: Relative SLO deadline per request; inf = no SLO.
    slo_ns: float = setting(POSITIVE_OR_INF, math.inf)
    #: Token-bucket rate limit (0 disables the gate) and the bucket's
    #: cap.
    rate_limit_rps: float = setting(NONNEGATIVE, 0.0)
    burst: float = setting(Domain("a finite number >= 1", float,
                                  lambda x: x >= 1), 32.0)
    #: vecadd: elements per request; olap: rows per request; kvstore:
    #: items in the tenant's table (0 = kind default).
    size: int = setting(COUNT, 0)
    #: Working-set slices requests cycle through (vecadd / olap).
    slices: int = setting(AT_LEAST_ONE, 8)
    placement: str | None = None
    #: Pin every allocation (and therefore every launch) to one hardware
    #: partition.  None = unpinned.
    partition: str | None = None
    #: kvstore only: fraction of requests that are GETs (the rest are
    #: SETs that overwrite existing keys in place).
    get_fraction: float = setting(FRACTION, 1.0)
    #: Retry budget for launches lost to faults (default: none).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Hedged requests: > 0 issues a duplicate launch if the primary has
    #: not completed within this delay (replicated point reads only; the
    #: first completion wins).  0 disables hedging.
    hedge_delay_ns: float = setting(NONNEGATIVE, 0.0)

    def __post_init__(self) -> None:
        row = self._row               # raises on an unknown kind
        validate_qos_class(self.qos_class,
                           source=f"tenant {self.name!r} qos_class")
        check_fields(self, f"TenantSpec {self.name!r}")
        if self.get_fraction < 1.0 and not row.mixes_ops:
            raise ConfigError(
                f"tenant {self.name!r}: get_fraction applies to kvstore "
                f"tenants only"
            )

    @property
    def _row(self) -> "_Kind":
        """This tenant's row of the kind table — the one place a kind
        name is looked up."""
        try:
            return _KINDS[self.kind]
        except KeyError:
            raise ConfigError(
                f"unknown tenant kind {self.kind!r}; "
                f"choose from {list(_KINDS)}"
            ) from None

    @property
    def effective_size(self) -> int:
        return self.size if self.size else self._row.default_size

    @property
    def total_requests(self) -> int:
        return self.arrivals.total_requests


#: Per-request staging-ring entry stride for scatter batches (the 40 B
#: descriptor padded to its own cache sector so lanes never share one).
SCATTER_ENTRY_BYTES = 64

#: A point-store request's kernel words — bucket pointer, key words, for
#: a SET its prewritten node, then the result slot — as a ring entry, by
#: ``is_get``.  (An unbatched launch passes all but the slot as its
#: arguments and runs over the slot itself.)
_ENTRY = {True: struct.Struct(f"<{kvstore.KEY_WORDS + 2}Q"),
          False: struct.Struct(f"<{kvstore.KEY_WORDS + 3}Q")}

#: Result slot per point-store request (value @0, status @64).
_SLOT_BYTES = 128


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


def _alloc_kw(spec: TenantSpec, default_placement: str | None = None) -> dict:
    """Where the tenant's allocations go (None: the cluster's default)."""
    return {"placement": spec.placement or default_placement,
            "partition": spec.partition}


# ---------------------------------------------------------------------------
# kind: slice sweep (vecadd, olap)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Sweep:
    """What tells one slice-sweep kind from another."""

    kernel: str
    label: str                    # kernel name suffix
    #: ``(gen, total elements) -> input arrays``: the first is the launch
    #: pool, the rest ride along as per-slice argument pointers.
    inputs: Callable
    out_dtype: type               # result element type
    consts: tuple[int, ...]       # trailing kernel arguments
    oracle: Callable              # ``(*inputs) -> expected result``


def _vecadd_inputs(gen, total: int) -> list[np.ndarray]:
    a = np.arange(total, dtype=np.int64)
    a *= int(gen.integers(1, 9))
    return [a, a[::-1].copy()]


def _olap_inputs(gen, total: int) -> list[np.ndarray]:
    return [gen.integers(0, 1000, total).astype(np.int32)]


_VECADD = _Sweep(VECADD, "vecadd", _vecadd_inputs, np.int64, (),
                 lambda a, b: a + b)
_OLAP = _Sweep(EVAL_RANGE_I32, "scan", _olap_inputs, np.uint8, (100, 900),
               lambda column: (column >= 100) & (column < 900))


class _SliceSweep:
    """Requests sweep one of ``spec.slices`` equal slices of the tenant's
    arrays; a batch over adjacent slices is one launch over their union
    whose argument pointers address the first slice."""

    fuse = "slices"
    hedgeable = False

    def __init__(self, sweep: _Sweep, runtime, spec: TenantSpec, gen) -> None:
        self.sweep = sweep
        self.runtime = runtime
        self.slices = spec.slices
        self.n = spec.effective_size
        total = self.n * spec.slices
        kw = _alloc_kw(spec)
        self.inputs = sweep.inputs(gen, total)
        out_item = np.dtype(sweep.out_dtype).itemsize
        #: Every swept array — inputs, then the result region — and the
        #: bytes one slice spans in each.
        self.addrs = [runtime.alloc_array(array, **kw)
                      for array in self.inputs]
        self.addrs.append(runtime.alloc(total * out_item, **kw))
        self._steps = [self.n * array.itemsize for array in self.inputs]
        self._steps.append(self.n * out_item)
        self.kid = runtime.register_kernel(
            sweep.kernel, name=f"{spec.name}.{sweep.label}"
        )
        self.anchor_addr = self.addrs[0]
        self._touched: set[int] = set()

    def slice_of(self, index: int) -> tuple[int, int]:
        s = index % self.slices
        return (s, s + 1)

    def batch_group(self, index: int) -> int:
        return 0

    def plan(self, requests: list[Request]) -> LaunchPlan:
        lo = min(r.slice_lo for r in requests)
        hi = max(r.slice_hi for r in requests)
        starts = [addr + lo * step
                  for addr, step in zip(self.addrs, self._steps)]
        return LaunchPlan(
            self.kid, starts[0], self.addrs[0] + hi * self._steps[0],
            pack_args(*starts[1:], *self.sweep.consts),
        )

    def note_served(self, requests: list[Request]) -> None:
        for request in requests:
            self._touched.update(range(request.slice_lo, request.slice_hi))

    def verify(self) -> bool:
        """Every served slice holds the oracle's result for its slice of
        the inputs (the oracles are elementwise)."""
        n = self.n
        produced = self.runtime.read_array(
            self.addrs[-1], self.sweep.out_dtype, n * self.slices)
        for s in self._touched:
            part = slice(s * n, (s + 1) * n)
            expected = self.sweep.oracle(*(array[part]
                                           for array in self.inputs))
            if not np.array_equal(
                    produced[part].astype(expected.dtype, copy=False),
                    expected):
                return False
        return True

    def result_snapshot(self) -> bytes:
        return bytes(self.runtime.physical.read_bytes(
            self.addrs[-1], self._steps[-1] * self.slices))


# ---------------------------------------------------------------------------
# kind: point store (kvstore)
# ---------------------------------------------------------------------------

class _PointStore:
    """One µthread per request — alone over its result slot, or
    scatter-batched over a run of staging-ring descriptors."""

    fuse = "scatter"

    def __init__(self, runtime, spec: TenantSpec, gen) -> None:
        self.runtime = runtime
        # Read-mostly tables replicate by default so any expander serves
        # a GET without a switch hop.
        kw = _alloc_kw(spec, "replicated")
        #: Point reads over replicated data may be hedged: any device can
        #: serve them, and the result-slot writes are idempotent, so
        #: racing a duplicate launch is safe.
        self.hedgeable = kw["placement"] == "replicated"
        frac = spec.get_fraction
        self.num_requests = spec.total_requests
        self.data = kvstore.generate(
            spec.effective_size, self.num_requests,
            get_fraction=frac,
            mix_name="GET" if frac >= 1.0 else f"GET{round(frac * 100)}",
            salt=int(gen.integers(0, 1 << 16)),
        )
        set_indices = [i for i, r in enumerate(self.data.requests)
                       if not r.is_get]
        self.table = kvstore.setup_table(
            runtime, self.data,
            spare_nodes=max(1, len(set_indices)),
            **kw,
        )
        self.anchor_addr = self.table.buckets_addr
        # one result slot per request; slots are verified post-run
        self.slots_addr = runtime.alloc(self.num_requests * _SLOT_BYTES,
                                        align=128, **kw)
        #: (is_get, scattered) -> kernel id
        self.kids = {(True, False): runtime.register_kernel(
            KVS_GET, name=f"{spec.name}.get")}
        #: The indices of the requests served, in serving order; verify
        #: reads each one's op and value from ``data``.
        self._served = array("q")
        # SETs overwrite existing keys: each SET's node (key + canonical
        # value) is host-prewritten once at setup, so re-planning a retry
        # or replaying a hedge writes identical bytes.
        self._set_node: dict[int, int] = {}
        if set_indices:
            self.kids[False, False] = runtime.register_kernel(
                KVS_SET, name=f"{spec.name}.set")
            for ordinal, i in enumerate(set_indices):
                node = self.table.spare_addr + ordinal * kvstore.NODE_BYTES
                kvstore._prewrite_node(runtime, node, self.data.requests[i])
                self._set_node[i] = node
        # scatter batching: a staging ring of per-request descriptors the
        # fused KVS_GET_SCATTER / KVS_SET_SCATTER launch walks, one
        # µthread per entry
        self.kids[True, True] = runtime.register_kernel(
            KVS_GET_SCATTER, name=f"{spec.name}.get_scatter")
        if set_indices:
            self.kids[False, True] = runtime.register_kernel(
                KVS_SET_SCATTER, name=f"{spec.name}.set_scatter")
        # retried requests are re-planned into fresh ring entries, so the
        # ring is sized for the worst-case attempt count
        entries = self.num_requests * (1 + spec.retry.max_retries)
        self.staging_addr = runtime.alloc(
            entries * SCATTER_ENTRY_BYTES, align=128, **kw
        )
        self._staging_cursor = 0

    def slice_of(self, index: int) -> tuple[int, int]:
        return (index, index + 1)         # identity: one slot per request

    def batch_group(self, index: int) -> int:
        return 0 if self.data.requests[index].is_get else 1

    def plan(self, requests: list[Request]) -> LaunchPlan:
        # Batches are op-homogeneous (batch_group): GETs and SETs never
        # share a launch.
        data = self.data
        is_get = data.requests[requests[0].index].is_get
        buckets_addr = self.table.buckets_addr
        entries = []
        for request in requests:
            req = data.requests[request.index]
            words = [buckets_addr + 8 * kvstore.hash_key(*req.key,
                                                         data.buckets),
                     *req.key]
            if not is_get:
                words.append(self._set_node[request.index])
            words.append(self.slots_addr + request.index * _SLOT_BYTES)
            entries.append(words)
        if len(entries) == 1:
            *words, slot = entries[0]
            return LaunchPlan(self.kids[is_get, False], slot, slot + 32,
                              pack_args(*words))
        base = (self.staging_addr
                + self._staging_cursor * SCATTER_ENTRY_BYTES)
        write, pack = self.runtime.physical.write_bytes, _ENTRY[is_get].pack
        for i, words in enumerate(entries):
            write(base + i * SCATTER_ENTRY_BYTES, pack(*words))
        self._staging_cursor += len(entries)
        return LaunchPlan(
            self.kids[is_get, True], base,
            base + len(entries) * SCATTER_ENTRY_BYTES,
            args=b"", stride=SCATTER_ENTRY_BYTES, scatter=True,
        )

    def note_served(self, requests: list[Request]) -> None:
        self._served.extend(request.index for request in requests)

    def verify(self) -> bool:
        # Every slot must report status 1: "found" for a GET, which must
        # also have fetched its value, and "updated" for a SET — every
        # serving SET targets an existing key, so an "inserted" (2) would
        # mean an order-dependent chain mutation and a broken
        # byte-identity guarantee.  Word 8 of a slot is its status, word
        # 0 the value's first word; all slots come from one read.
        if not self._served:
            return True
        slots = np.frombuffer(self.result_snapshot(), "<u8").reshape(
            self.num_requests, _SLOT_BYTES // 8)
        served = np.frombuffer(self._served, np.int64)
        requests = self.data.requests
        is_get = np.fromiter((requests[i].is_get for i in self._served),
                             bool, served.size)
        fetched = np.fromiter(
            (requests[i].value_seed if requests[i].is_get else 0
             for i in self._served), np.uint64, served.size)
        return bool(((slots[served, 8] == 1)
                     & (~is_get | (slots[served, 0] == fetched))).all())

    def result_snapshot(self) -> bytes:
        return bytes(self.runtime.physical.read_bytes(
            self.slots_addr, self.num_requests * _SLOT_BYTES))


# ---------------------------------------------------------------------------
# the kind table and the facade over it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """One tenant kind: a fourth kind is one more row of ``_KINDS``."""

    #: ``(runtime, spec, gen) -> kind object`` (the contract in the
    #: module docstring).
    build: Callable
    #: Default per-request size (elements / rows / table items).
    default_size: int
    #: ``TenantSpec.get_fraction`` applies (requests come in two ops).
    mixes_ops: bool = False


_KINDS = {
    "vecadd": _Kind(partial(_SliceSweep, _VECADD), 1 << 14),
    "olap": _Kind(partial(_SliceSweep, _OLAP), 1 << 15),
    "kvstore": _Kind(_PointStore, 1 << 10, mixes_ops=True),
}

#: Request kinds the serving tiers implement.
SERVE_KINDS = tuple(_KINDS)


class TenantWorkload:
    """Data + request factories for one tenant on a cluster runtime: the
    engine-facing facade over the tenant's kind object (``impl``)."""

    def __init__(self, platform, spec: TenantSpec, seed: int) -> None:
        self.spec = spec
        self.runtime = platform.runtime
        self.impl = spec._row.build(self.runtime, spec,
                                   stream_rng(seed, spec.name))
        #: How this tenant's requests fuse: "slices" | "scatter".
        self.fuse: str = self.impl.fuse
        #: Racing a duplicate launch is safe (idempotent replicated reads).
        self.hedgeable: bool = self.impl.hedgeable
        # The tenant's partition is read through one anchor shard so a
        # partition failover (ShardMap remap) is visible to the engine's
        # per-partition capacity accounting.
        self._anchor_shard = self.runtime.shard_map(self.impl.anchor_addr)

    @property
    def active_partition(self) -> str | None:
        """The partition this tenant's launches currently land in, after
        any fault-driven remap; None when unpinned."""
        return self._anchor_shard.active_partition

    def slice_of(self, index: int) -> tuple[int, int]:
        """Working-set slice range request ``index`` covers."""
        return self.impl.slice_of(index)

    def batch_group(self, index: int) -> int:
        """Fusion group for request ``index``: requests in different
        groups must never share a scatter batch (GETs and SETs run
        different kernels)."""
        return self.impl.batch_group(index)

    def plan(self, requests: list[Request]) -> LaunchPlan:
        """One launch covering a batch.

        Planning is side-effect free on the verification state: launches
        can fail (faults) and be re-planned on retry, so what-was-served
        bookkeeping happens in :meth:`note_served` on the success path.
        """
        return self.impl.plan(requests)

    def note_served(self, requests: list[Request]) -> None:
        """Record a successfully served batch for post-run verification.

        Called by the engine on launch completion (not at plan time):
        requests whose every launch attempt failed must not be verified —
        their slices/slots were legitimately never produced.
        """
        self.impl.note_served(requests)

    def verify(self) -> bool:
        """Every served request's result matches the kind's oracle."""
        return self.impl.verify()

    def result_snapshot(self) -> bytes:
        """Raw bytes of the tenant's result region.

        Two runs that served the same requests must produce identical
        snapshots regardless of scheduling or batching — the
        per-request-identity check of the batching and scatter
        differential tests (``tests/serve``).
        """
        return self.impl.result_snapshot()
