"""A dropped platform is freed at once, by reference counting.

The device owns its units, controller, backend and page tables; none of
them points back at it strongly, and a fallback keeps no traceback.  So
with the cyclic collector off, deleting the platform after a launch on
any engine route frees the device, and a kernel sweep holds one platform
at a time.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.host.api import pack_args
from repro.host.offload import make_offload_path
from repro.kernels.vecadd import VECADD
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


#: route -> (backend, the launch, the counter that shows the route ran)
ROUTES = {
    "uniform_walk": ("batched", _vecadd, "exec.batched_launches"),
    "masked_walk": ("batched", _histogram, "exec.simt_launches"),
    "point_engine": ("batched", _kv_get, "exec.point_launches"),
    "interpreter": ("interpreter", _vecadd, "ndp.uthreads_finished"),
    "raw_fallback": ("batched", _sssp, "exec.fallback_reason.raw"),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_dropped_platform_is_freed_without_a_collection(route):
    backend, launch, counter = ROUTES[route]
    gc.collect()
    gc.disable()
    try:
        platform = make_platform(backend=backend)
        launch(platform)
        assert platform.stats.get(counter) >= 1
        device = weakref.ref(platform.device)
        del platform
        assert device() is None
    finally:
        gc.enable()
