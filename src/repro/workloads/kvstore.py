"""KVStore workload (§IV-B): simplified Redis over a CXL-resident hash
table, driven by YCSB-like traces.

The host computes the key hash (compute-bound, the ``cpu`` row's
``kvs_hash_ns`` a request, on either path); the bucket walk, key
compare and value copy are offloaded as a fine-grained one-µthread NDP
kernel.  Baseline: the host walks the chain itself over CXL.mem, paying
full load-to-use latency per dependent access.

Workload mixes follow YCSB: KVS_A = 50 % GET / 50 % SET,
KVS_B = 95 % GET / 5 % SET, zipfian key popularity [37].

Hash-table node layout (128 B): key 24 B @0, value 64 B @32, next @96.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import COMPARATORS
from repro.host.api import M2NDPRuntime, pack_args
from repro.host.cpu import CoreRequestPool, HostCPUModel, MemoryTarget
from repro.host.offload import OffloadPath
from repro.kernels.kvstore import KVS_GET, KVS_SET
from repro.sim.stats import Distribution
from repro.workloads.base import Platform, rng

NODE_BYTES = 128
KEY_WORDS = 3
VALUE_BYTES = 64


def hash_key(k0: int, k1: int, k2: int, buckets: int) -> int:
    """The host-side key hash (also used by the serving tier)."""
    h = (k0 * 0x9E3779B97F4A7C15 + k1 * 0xC2B2AE3D27D4EB4F + k2) & (
        0xFFFFFFFFFFFFFFFF
    )
    h ^= h >> 29
    return h % buckets


@dataclass
class KVRequest:
    arrival_ns: float
    is_get: bool
    key: tuple[int, int, int]
    chain_position: int          # depth of the key in its bucket (0-based)
    value_seed: int = 0


@dataclass
class KVStoreData:
    items: int
    buckets: int
    keys: np.ndarray             # [items, 3] u64
    bucket_of: np.ndarray        # [items]
    chain_position: np.ndarray   # [items] depth within bucket
    requests: list[KVRequest]
    mix_name: str


def generate(items: int, requests: int, get_fraction: float,
             mix_name: str, salt: int = 0,
             interarrival_ns: float = 500.0) -> KVStoreData:
    """Build the table population and a zipfian open-loop request trace."""
    gen = rng(salt + items)
    buckets = max(64, items // 2)
    keys = gen.integers(1, 1 << 63, (items, KEY_WORDS), dtype=np.uint64)
    # Python ints from .tolist(), not numpy scalars one element at a time
    key_of = [tuple(row) for row in keys.tolist()]
    bucket_of = np.array([hash_key(*key, buckets) for key in key_of],
                         dtype=np.int64)
    # chain position: i-th key hashed to a bucket sits at depth i
    depth_seen: dict[int, int] = {}
    position_of = []
    for b in bucket_of.tolist():
        depth = depth_seen.get(b, 0)
        position_of.append(depth)
        depth_seen[b] = depth + 1
    chain_position = np.array(position_of, dtype=np.int64)

    zipf = gen.zipf(1.2, size=requests)
    target_items = ((zipf - 1) % items).astype(np.int64)
    is_get = gen.random(requests) < get_fraction
    arrivals = np.cumsum(gen.exponential(interarrival_ns, requests))

    reqs = [
        KVRequest(arrival_ns=arrival, is_get=get, key=key_of[item],
                  chain_position=position_of[item], value_seed=item)
        for arrival, get, item in zip(arrivals.tolist(), is_get.tolist(),
                                      target_items.tolist())
    ]
    return KVStoreData(items=items, buckets=buckets, keys=keys,
                       bucket_of=bucket_of, chain_position=chain_position,
                       requests=reqs, mix_name=mix_name)


def kvs_a(items: int, requests: int, salt: int = 0,
          interarrival_ns: float = 500.0) -> KVStoreData:
    return generate(items, requests, 0.5, "KVS_A", salt, interarrival_ns)


def kvs_b(items: int, requests: int, salt: int = 0,
          interarrival_ns: float = 500.0) -> KVStoreData:
    return generate(items, requests, 0.95, "KVS_B", salt, interarrival_ns)


# ---------------------------------------------------------------------------
# table setup in HDM
# ---------------------------------------------------------------------------

@dataclass
class KVTable:
    buckets_addr: int
    nodes_addr: int
    spare_addr: int          # preallocated nodes for SET inserts
    spare_used: int = 0
    node_of_item: np.ndarray | None = None


def setup_table(runtime: M2NDPRuntime, data: KVStoreData,
                spare_nodes: int = 1024,
                placement: str | None = None,
                partition: str | None = None) -> KVTable:
    """Materialize buckets and chained nodes in device memory.

    ``placement`` (cluster runtimes only) shards or replicates the table
    across the expanders; the single-device runtime ignores it.
    ``partition`` (cluster runtimes only) pins every launch against
    the table to one hardware partition.
    """
    device = runtime.device
    kwargs = {} if placement is None else {"placement": placement}
    if partition is not None:
        kwargs["partition"] = partition
    buckets_addr = runtime.alloc(data.buckets * 8, **kwargs)
    nodes_addr = runtime.alloc(data.items * NODE_BYTES, align=128, **kwargs)
    spare_addr = runtime.alloc(spare_nodes * NODE_BYTES, align=128, **kwargs)

    heads = np.zeros(data.buckets, dtype=np.uint64)
    node_of_item = np.zeros(data.items, dtype=np.uint64)
    blob = bytearray(data.items * NODE_BYTES)
    value = bytearray(VALUE_BYTES)
    for i in range(data.items):
        addr = nodes_addr + i * NODE_BYTES
        node_of_item[i] = addr
        base = i * NODE_BYTES
        for w in range(KEY_WORDS):
            blob[base + 8 * w:base + 8 * w + 8] = int(data.keys[i, w]).to_bytes(8, "little")
        value[0:8] = (i & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        blob[base + 32:base + 32 + VALUE_BYTES] = value
        bucket = int(data.bucket_of[i])
        blob[base + 96:base + 104] = int(heads[bucket]).to_bytes(8, "little")
        heads[bucket] = addr
    device.physical.write_bytes(nodes_addr, bytes(blob))
    device.physical.store_array(buckets_addr, heads)
    return KVTable(buckets_addr=buckets_addr, nodes_addr=nodes_addr,
                   spare_addr=spare_addr, node_of_item=node_of_item)


# ---------------------------------------------------------------------------
# NDP serving path
# ---------------------------------------------------------------------------

@dataclass
class KVSRunResult:
    mix_name: str
    latencies: Distribution
    served: int
    correct: bool

    @property
    def p95_ns(self) -> float:
        return self.latencies.p95

    @property
    def mean_ns(self) -> float:
        return self.latencies.mean

    def throughput_rps(self, elapsed_ns: float) -> float:
        return self.served / (elapsed_ns * 1e-9) if elapsed_ns > 0 else 0.0


def run_ndp(platform: Platform, data: KVStoreData,
            path: OffloadPath) -> KVSRunResult:
    """Serve the trace through NDP kernels launched via ``path``."""
    runtime = platform.runtime
    sim = platform.sim
    table = setup_table(runtime, data)
    get_kid = runtime.register_kernel(KVS_GET, name="kvs_get")
    set_kid = runtime.register_kernel(KVS_SET, name="kvs_set")

    results_addr = runtime.alloc(len(data.requests) * 128, align=128)
    cpu = COMPARATORS["cpu"]
    pool = CoreRequestPool(sim, cpu["cores"])
    hash_ns = cpu["kvs_hash_ns"]
    latencies = Distribution()
    get_checks: list[tuple[int, int]] = []   # (result slot, expected seed)
    mutated = {
        req.key for req in data.requests if not req.is_get
    }
    # kernel registration stepped the simulator; the trace starts after it
    epoch = sim.now

    def make_launch(req: KVRequest, slot_addr: int, arrival: float):
        def after_hash(hash_done_ns: float) -> None:
            bucket_ptr = table.buckets_addr + 8 * hash_key(
                *req.key, data.buckets
            )
            if req.is_get:
                args = pack_args(bucket_ptr, *req.key)
                kid = get_kid
            else:
                node = table.spare_addr + table.spare_used * NODE_BYTES
                table.spare_used += 1
                _prewrite_node(runtime, node, req)
                args = pack_args(bucket_ptr, *req.key, node)
                kid = set_kid

            def done(handle) -> None:
                latencies.add(handle.complete_ns - arrival)

            path.launch(runtime, kid, slot_addr, slot_addr + 32, args=args,
                        at_ns=hash_done_ns, on_complete=done)

        return after_hash

    for i, req in enumerate(data.requests):
        slot = results_addr + i * 128
        if req.is_get and req.key not in mutated:
            get_checks.append((slot, req.value_seed))
        arrival = epoch + req.arrival_ns
        callback = make_launch(req, slot, arrival)
        sim.schedule_at(
            arrival,
            (lambda a=arrival, cb=callback: pool.submit(a, hash_ns, cb)),
        )

    sim.run()

    correct = True
    for slot, seed in get_checks:
        status = runtime.device.physical.read_u64(slot + 64)
        value0 = runtime.device.physical.read_u64(slot)
        if status != 1 or value0 != seed:
            correct = False
            break

    return KVSRunResult(mix_name=data.mix_name, latencies=latencies,
                        served=latencies.count, correct=correct)


def _prewrite_node(runtime: M2NDPRuntime, node_addr: int,
                   req: KVRequest) -> None:
    """Host prepares a SET's node (key + value) before offloading."""
    device = runtime.device
    for w, word in enumerate(req.key):
        device.physical.write_u64(node_addr + 8 * w, word)
    device.physical.write_u64(node_addr + 32, req.value_seed)
    device.physical.write_u64(node_addr + 96, 0)


# ---------------------------------------------------------------------------
# host baseline (no NDP): chain walk over CXL.mem
# ---------------------------------------------------------------------------

def run_baseline(platform: Platform, data: KVStoreData,
                 ltu_ns: float | None = None) -> KVSRunResult:
    """Host serves requests itself, on every host core; each chain hop is a
    dependent CXL read."""
    sim = platform.sim
    cxl = platform.system.cxl
    ltu = ltu_ns if ltu_ns is not None else cxl.load_to_use_ns
    cpu = HostCPUModel()
    memory = MemoryTarget("cxl", ltu, cxl.bw_per_dir_bytes_per_ns)
    pool = CoreRequestPool(sim, cpu.row["cores"])
    hash_ns = cpu.row["kvs_hash_ns"]
    latencies = Distribution()

    for req in data.requests:
        # bucket head + one node header per chain hop + the value line
        depth = 1 + req.chain_position + 1 + 1
        service = hash_ns + cpu.pointer_chase_ns(depth, memory)

        def done(when_ns: float, r=req) -> None:
            latencies.add(when_ns - r.arrival_ns)

        sim.schedule_at(
            req.arrival_ns,
            (lambda r=req, s=service, cb=done: pool.submit(r.arrival_ns, s, cb)),
        )

    sim.run()
    return KVSRunResult(mix_name=data.mix_name, latencies=latencies,
                        served=latencies.count, correct=True)
