"""A dropped platform is freed at once, and a reused one stops growing.

The device owns its units, controller, backend and page tables; none of
them points back at it strongly, and a fallback keeps no traceback.  So
with the cyclic collector off, deleting the platform after a launch on
any engine route frees the device and its scratchpad mapping, and a
kernel sweep holds one platform at a time.  A cluster platform frees
every one of its devices the same way, also after a monitored serving
run: the incident reporter reaches the runtime through a weak reference.

A platform that serves pass after pass reaches a steady state: each
``ServingEngine`` frees what its tenants allocated when its run ends, so
the next one gets the same bases, maps no new page and hits the traces
the last one left, and the controllers keep no finished launch.
"""

import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.host.api import pack_args
from repro.host.offload import make_offload_path
from repro.kernels.vecadd import VECADD
from repro.serve import ArrivalSpec, ServingEngine, TenantSpec
from repro.workloads import graph, histogram, kvstore
from repro.workloads.base import make_platform


def _vecadd(platform):
    runtime = platform.runtime
    a = np.arange(4096, dtype=np.int64)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(a[::-1].copy())
    addr_c = runtime.alloc(a.nbytes)
    runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                       args=pack_args(addr_b, addr_c))


def _histogram(platform):
    assert histogram.run_ndp(platform, histogram.generate(1 << 11, 256)).correct


def _kv_get(platform):
    kvstore.run_ndp(platform, kvstore.kvs_b(64, 20),
                    make_offload_path("m2func"))


def _sssp(platform):
    assert graph.run_ndp_sssp(platform, graph.generate(256, 8, salt=2)).correct


def _monitored_serving(platform):
    spec = TenantSpec("t", "vecadd", size=256, slices=4,
                      arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                           requests=6))
    engine = ServingEngine(platform, [spec], monitoring=True)
    engine.run()
    assert platform.runtime.monitoring is engine.monitoring is not None


#: route -> (the platform, the launch, the counter that shows the route ran)
ROUTES = {
    "uniform_walk": (make_platform, _vecadd, "exec.batched_launches"),
    "masked_walk": (make_platform, _histogram, "exec.simt_launches"),
    "point_engine": (make_platform, _kv_get, "exec.point_launches"),
    "interpreter": (partial(make_platform, backend="interpreter"), _vecadd,
                    "ndp.uthreads_finished"),
    "raw_fallback": (make_platform, _sssp, "exec.fallback_reason.raw"),
    "cluster": (partial(make_cluster_platform, 4), _vecadd,
                "exec.batched_launches"),
    "monitored_serving": (partial(make_cluster_platform, 2),
                          _monitored_serving, "serve.t.served"),
}


def _devices(platform):
    return getattr(platform, "devices", [platform.device])


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_dropped_platform_is_freed_without_a_collection(route):
    build, launch, counter = ROUTES[route]
    gc.collect()
    gc.disable()
    try:
        platform = build()
        launch(platform)
        assert platform.stats.get(counter) >= 1
        refs = [weakref.ref(obj) for device in _devices(platform)
                for obj in (device, device.scratchpads)]
        del platform
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


#: The steady-state test's tenants: every pass serves the same requests.
STEADY_TENANTS = [
    TenantSpec("vec", "vecadd", size=1024, slices=4,
               arrivals=ArrivalSpec("poisson", rate_rps=1e6, requests=16)),
    TenantSpec("kv", "kvstore", size=64,
               arrivals=ArrivalSpec("poisson", rate_rps=2e6, requests=24)),
]

#: Bytes ``tracemalloc`` may see a steady pass add: a quarter of the
#: 404 kB a pass grew by when every pass allocated fresh ranges and the
#: controllers kept every launch.  What still grows (about 64 kB a pass)
#: is the units' occupancy series, 16 B a point and two points per unit
#: per launch, and the tenants' latency samples.
STEADY_GROWTH_BYTES = 100_000


def test_a_reused_platform_reaches_a_steady_state():
    platform = make_cluster_platform(2)
    runtime = platform.runtime
    stats = platform.stats
    states, traced = [], []
    tracemalloc.start()
    try:
        for _ in range(5):
            hits = stats.get("exec.trace_cache_hits_batched")
            misses = stats.get("exec.trace_cache_misses")
            report = ServingEngine(platform, STEADY_TENANTS).run()
            assert report.correct and report.served == report.offered
            hits = stats.get("exec.trace_cache_hits_batched") - hits
            misses = stats.get("exec.trace_cache_misses") - misses
            states.append((
                len(runtime.physical._pages), len(runtime.allocator.maps),
                [len(device.page_table(rt.asid))
                 for device, rt in zip(runtime.devices, runtime.runtimes)],
                [len(device.controller.instances)
                 for device in runtime.devices],
                # misses are not split by engine: a lower bound on the
                # vecadd tenant's hit ratio (the kv tenant's point launches
                # count their hits apart)
                hits / (hits + misses)))
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert all(state[:4] == states[1][:4] for state in states[1:])
    assert states[1][3] == [0, 0]
    assert all(state[4] >= 0.95 for state in states[1:])
    assert (traced[-1] - traced[1]) / 3 < STEADY_GROWTH_BYTES


KV_TENANTS = [
    TenantSpec(name, "kvstore", size=64, get_fraction=0.5,
               arrivals=ArrivalSpec("poisson", rate_rps=2e7, requests=48))
    for name in ("kv", "kv2")]


def test_a_reused_kvstore_platform_keeps_nothing_per_request():
    """What a serving pass leaves on its platform does not grow with the
    requests it served: the units keep no occupancy point, the registry
    keeps counters only, and the simulator's queue holds one arrival per
    tenant at a time, not the whole stream."""
    platform = make_cluster_platform(1)
    sim = platform.sim
    step = sim.step
    engines, most_pending = [], []

    def step_counting_arrivals():
        busy = step()
        # a new engine steps the simulator to register its kernels
        for state in engines[-1].tenants.values() if engines else ():
            seqs = range(state.first_seq,
                         state.first_seq + state.arrival_times.size)
            most_pending.append(
                sum(seq in seqs for _t, seq, _cb in sim._queue))
        return busy

    sim.step = step_counting_arrivals
    counters = []
    for _ in range(2):
        engines.append(ServingEngine(platform, KV_TENANTS))
        report = engines[-1].run()
        assert report.correct and report.served == report.offered == 96
        counters.append(len(platform.stats.snapshot()))
        units = [unit for device in platform.devices
                 for unit in device.units]
        assert all(unit.occupancy.sampler.series is None for unit in units)
        assert vars(platform.runtime.stats).keys() == {"_counters"}
    assert counters[0] == counters[1]
    assert max(most_pending) == 1
