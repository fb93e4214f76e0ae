"""Point-engine path cache: generalized keys, staleness, pins.

The point engine (`repro/exec/point.py`) records one decision-trie of
taint-traced paths per *structural* launch key and replays arbitrary
same-shape launches against it.  These tests pin the behaviors the
serving-layer speedup rests on: value-generalized keys actually hit
across distinct requests, a lane that consumes a loaded word
non-linearly walks every launch instead of replaying stale bytes, and
the hit/miss counts on the canonical KVS_B trace stay exactly where the
PR left them.
"""

import numpy as np
import pytest

from repro.host.api import pack_args
from repro.host.offload import make_offload_path
from repro.workloads import kvstore
from repro.workloads.base import make_platform

#: Canonical fine-grained trace for the counter pins: 300 skewed GETs
#: against a 512-item table, every launch one µthread wide.
ITEMS, REQUESTS = 512, 300


def _run_kvs(platform):
    data = kvstore.kvs_b(ITEMS, REQUESTS)
    return kvstore.run_ndp(platform, data, make_offload_path("m2func"))


def _counters(platform):
    return {
        name: platform.stats.get(f"exec.{name}")
        for name in ("trace_cache_hits", "trace_cache_misses",
                     "trace_cache_hits_generalized", "trace_cache_hits_point",
                     "trace_cache_hits_batched", "trace_cache_hits_simt",
                     "point_launches")
    }


class TestGeneralizedKeys:
    def test_point_hits_across_distinct_requests(self):
        # 300 GETs with 300 different keys share ~10 structural shapes
        # (chain depth x found/not-found); value-generalized keys must
        # turn the repeats into hits even though every argument differs
        platform = make_platform(backend="batched")
        result = _run_kvs(platform)
        counters = _counters(platform)
        assert result.correct
        assert counters["trace_cache_hits_point"] > 0
        assert counters["trace_cache_hits_generalized"] > 0
        assert counters["trace_cache_hits_simt"] == 0


class TestRegressionPins:
    def test_kvs_b_hit_counts_exact(self):
        # the seed recorded 300 misses / 0 hits on this exact trace; the
        # generalized point path turns it into 290 hits / 10 misses (one
        # cold walk per structural shape).  A drift in either direction
        # means the keying or the trie changed behavior — fail loudly.
        platform = make_platform(backend="batched")
        result = _run_kvs(platform)
        counters = _counters(platform)
        assert result.correct
        assert counters["trace_cache_hits"] == 290
        assert counters["trace_cache_misses"] == 10
        assert counters["trace_cache_hits_generalized"] == 290
        assert counters["trace_cache_hits_point"] == 290
        assert counters["point_launches"] == REQUESTS

    def test_deterministic_latencies_across_fresh_runs(self):
        # wall-clock may vary; simulated time may not
        first = _run_kvs(make_platform(backend="batched"))
        second = _run_kvs(make_platform(backend="batched"))
        assert first.p95_ns == second.p95_ns
        assert first.mean_ns == second.mean_ns


#: Loads x5 and consumes it non-linearly (andi).  The point engine
#: verifies no loaded bytes, so this lane is never cached: it walks on
#: every launch.
MASK_KERNEL = """
.body
    ld   x4, 0(x3)
    ld   x5, 0(x4)
    andi x6, x5, 255
    sd   x6, 0(x1)
    ret
"""


class TestStaleTrace:
    def test_verified_load_mismatch_retraces(self):
        # replay must never produce bytes the live memory no longer
        # justifies: the andi lane walks every launch, so each rewrite of
        # the word shows in the next result exactly as on the interpreter
        results = {}
        for backend in ("batched", "interpreter"):
            platform = make_platform(backend=backend)
            runtime = platform.runtime
            addr_data = runtime.alloc_array(np.array([0], dtype=np.int64))
            addr_out = runtime.alloc(32)
            kid = runtime.register_kernel(MASK_KERNEL)
            got = []
            for word in (0x1234, None, 0x5678, None, 0x9ABC):
                if word is not None:
                    platform.device.physical.store_array(
                        addr_data, np.array([word], dtype=np.int64))
                runtime.launch_kernel(kid, addr_out, addr_out + 32,
                                      args=pack_args(addr_data))
                got.append(int(runtime.read_array(addr_out, np.int64, 1)[0]))
            results[backend] = got
            if backend == "batched":
                assert platform.stats.get("exec.point_launches") == 5
                assert platform.stats.get("exec.trace_cache_hits") == 0
                assert platform.stats.get("exec.trace_cache_misses") == 5
        assert results["batched"] == results["interpreter"] == [
            0x34, 0x34, 0x78, 0x78, 0xBC]
