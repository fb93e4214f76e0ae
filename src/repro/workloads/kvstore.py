"""KVStore workload (§IV-B): simplified Redis over a CXL-resident hash
table, driven by YCSB-like traces.

The host computes the key hash (compute-bound, the ``cpu`` row's
``kvs_hash_ns`` a request, on either path); the bucket walk, key
compare and value copy are offloaded as a fine-grained one-µthread NDP
kernel.  Baseline: the host walks the chain itself over CXL.mem, paying
full load-to-use latency per dependent access.

Workload mixes follow YCSB: KVS_A = 50 % GET / 50 % SET,
KVS_B = 95 % GET / 5 % SET, zipfian key popularity [37].

:class:`KVStoreData` is columns.  The table is per item: ``keys``
([items, 3] u64), ``bucket_of`` and ``chain_position``.  The trace is
per request: ``arrival_ns``, ``is_get`` and ``item``.  A request's key
words, bucket and chain depth are its item's row of the table, and its
value seed (the value's first word) is the item itself.

Hash-table node layout (128 B): key 24 B @0, value 64 B @32, next @96.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: Per key word, its multiplier in the key hash.
_HASH_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 1], np.uint64)


def hash_key(keys: np.ndarray, buckets: int) -> np.ndarray:
    """The host-side key hash of each key (rows of ``KEY_WORDS`` u64
    words) as its bucket: the words' mixed sum mod 2**64, folded."""
    h = (keys * _HASH_MIX).sum(axis=-1, dtype=np.uint64)
    return ((h ^ (h >> 29)) % np.uint64(buckets)).astype(np.int64)


@dataclass
class KVStoreData:
    buckets: int
    keys: np.ndarray             # [items, 3] u64
    bucket_of: np.ndarray        # [items]
    chain_position: np.ndarray   # [items] depth within bucket
    arrival_ns: np.ndarray       # [requests] f64, open-loop arrival
    is_get: np.ndarray           # [requests] bool
    item: np.ndarray             # [requests] i64, the key's table row
    mix_name: str


def generate(items: int, requests: int, get_fraction: float,
             mix_name: str, salt: int = 0,
             interarrival_ns: float = 500.0) -> KVStoreData:
    """Build the table population and a zipfian open-loop request trace."""
    gen = rng(salt + items)
    buckets = max(64, items // 2)
    keys = gen.integers(1, 1 << 63, (items, KEY_WORDS), dtype=np.uint64)
    bucket_of = hash_key(keys, buckets)
    # chain position: i-th key hashed to a bucket sits at depth i
    depth_seen: dict[int, int] = {}
    position_of = []
    for b in bucket_of.tolist():
        depth = depth_seen.get(b, 0)
        position_of.append(depth)
        depth_seen[b] = depth + 1

    zipf = gen.zipf(1.2, size=requests)
    item = ((zipf - 1) % items).astype(np.int64)
    is_get = gen.random(requests) < get_fraction
    arrival_ns = np.cumsum(gen.exponential(interarrival_ns, requests))
    return KVStoreData(buckets=buckets, keys=keys, bucket_of=bucket_of,
                       chain_position=np.array(position_of, dtype=np.int64),
                       arrival_ns=arrival_ns, is_get=is_get, item=item,
                       mix_name=mix_name)


def kvs_a(items: int, requests: int,
          interarrival_ns: float = 500.0) -> KVStoreData:
    return generate(items, requests, 0.5, "KVS_A",
                    interarrival_ns=interarrival_ns)


def kvs_b(items: int, requests: int,
          interarrival_ns: float = 500.0) -> KVStoreData:
    return generate(items, requests, 0.95, "KVS_B",
                    interarrival_ns=interarrival_ns)


# ---------------------------------------------------------------------------
# table setup in HDM
# ---------------------------------------------------------------------------

@dataclass
class KVTable:
    buckets_addr: int
    nodes_addr: int
    spare_addr: int          # preallocated nodes for SET inserts
    spare_used: int = 0


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
    items = len(data.keys)
    buckets_addr = runtime.alloc(data.buckets * 8, **kwargs)
    nodes_addr = runtime.alloc(items * NODE_BYTES, align=128, **kwargs)
    spare_addr = runtime.alloc(spare_nodes * NODE_BYTES, align=128, **kwargs)

    # one row of u64 words per node; the value's first word is its item
    nodes = np.zeros((items, NODE_BYTES // 8), dtype="<u8")
    nodes[:, :KEY_WORDS] = data.keys
    nodes[:, 4] = np.arange(items)
    heads, next_node = [0] * data.buckets, []
    for i, bucket in enumerate(data.bucket_of.tolist()):
        next_node.append(heads[bucket])
        heads[bucket] = nodes_addr + i * NODE_BYTES
    nodes[:, 12] = next_node
    device.physical.store_array(nodes_addr, nodes)
    device.physical.store_array(buckets_addr, np.array(heads, dtype="<u8"))
    return KVTable(buckets_addr=buckets_addr, nodes_addr=nodes_addr,
                   spare_addr=spare_addr)


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

    results_addr = runtime.alloc(data.item.size * 128, align=128)
    cpu = COMPARATORS["cpu"]
    pool = CoreRequestPool(sim, cpu["cores"])
    hash_ns = cpu["kvs_hash_ns"]
    latencies = Distribution()
    get_checks: list[tuple[int, int]] = []   # (result slot, expected seed)
    mutated = set(data.item[~data.is_get].tolist())
    keys, bucket_of = data.keys.tolist(), data.bucket_of.tolist()
    # kernel registration stepped the simulator; the trace starts after it
    epoch = sim.now

    def make_launch(get: bool, item: int, slot_addr: int, arrival: float):
        def after_hash(hash_done_ns: float) -> None:
            key = keys[item]
            bucket_ptr = table.buckets_addr + 8 * bucket_of[item]
            if get:
                args = pack_args(bucket_ptr, *key)
                kid = get_kid
            else:
                node = table.spare_addr + table.spare_used * NODE_BYTES
                table.spare_used += 1
                _prewrite_node(runtime, node, key, item)
                args = pack_args(bucket_ptr, *key, node)
                kid = set_kid

            def done(handle) -> None:
                latencies.add(handle.complete_ns - arrival)

            path.launch(runtime, kid, slot_addr, slot_addr + 32, args=args,
                        at_ns=hash_done_ns, on_complete=done)

        return after_hash

    for i, (get, item, arrival_ns) in enumerate(zip(
            data.is_get.tolist(), data.item.tolist(),
            data.arrival_ns.tolist())):
        slot = results_addr + i * 128
        if get and item not in mutated:
            get_checks.append((slot, item))
        arrival = epoch + arrival_ns
        callback = make_launch(get, item, slot, arrival)
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
                   key_words, value: int) -> None:
    """Host prepares a SET's node (key + value) before offloading."""
    device = runtime.device
    for w, word in enumerate(key_words):
        device.physical.write_u64(node_addr + 8 * w, word)
    device.physical.write_u64(node_addr + 32, value)
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

    chain_position = data.chain_position.tolist()
    for arrival, item in zip(data.arrival_ns.tolist(), data.item.tolist()):
        # bucket head + one node header per chain hop + the value line
        depth = 1 + chain_position[item] + 1 + 1
        service = hash_ns + cpu.pointer_chase_ns(depth, memory)

        def done(when_ns: float, a=arrival) -> None:
            latencies.add(when_ns - a)

        sim.schedule_at(
            arrival,
            (lambda a=arrival, s=service, cb=done: pool.submit(a, s, cb)),
        )

    sim.run()
    return KVSRunResult(mix_name=data.mix_name, latencies=latencies,
                        served=latencies.count, correct=True)
