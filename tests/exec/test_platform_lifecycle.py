"""A dropped platform is freed at once, by reference counting.

The device owns its units, controller, backend and page tables; none of
them points back at it strongly, and a fallback keeps no traceback.  So
with the cyclic collector off, deleting the platform after a launch on
any engine route frees the device and its scratchpad mapping, and a
kernel sweep holds one platform at a time.  A cluster platform frees
every one of its devices the same way, also after a monitored serving
run: the incident reporter reaches the runtime through a weak reference.
"""

import gc
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
