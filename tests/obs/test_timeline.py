"""``UtilizationSampler.mark`` reads each window's occupancy from the
bisected start of the window; the answer must be bit-equal to scanning
every unit's whole series, window after window."""

import numpy as np

from repro.host.api import pack_args
from repro.kernels.reduction import REDUCE_SUM_I64
from repro.kernels.vecadd import VECADD
from repro.obs.timeline import UtilizationSampler
from repro.workloads.base import make_platform


def _full_scan_mean(points, start_ns: float, end_ns: float) -> float:
    """``StepSeries.time_weighted_mean`` as a scan from point 0."""
    area, current, prev_t = 0.0, 0.0, start_ns
    for t, v in points:
        if t < start_ns:
            current = v
            continue
        if t > end_ns:
            break
        area += current * (t - prev_t)
        prev_t, current = t, v
    area += current * (end_ns - prev_t)
    return area / (end_ns - start_ns)


def test_window_occupancy_equals_the_full_scan():
    platform = make_platform(backend="batched")
    runtime, device = platform.runtime, platform.device
    n = 4096
    a = np.arange(n, dtype=np.int64)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(a)
    addr_c = runtime.alloc(a.nbytes)
    out = runtime.alloc(8)
    vecadd = runtime.register_kernel(VECADD, name="vecadd")
    reduce_ = runtime.register_kernel(REDUCE_SUM_I64, scratchpad_bytes=64,
                                      name="reduce")
    sampler = UtilizationSampler([device], start_ns=0.0)
    marks = [0.0]
    for round_ in range(6):
        # the interpreter-free mix still clamps: the small launch starts
        # before the multi-phase launch's later phase samples
        now = platform.sim.now
        runtime.launch_async(reduce_, addr_a, addr_a + a.nbytes,
                             args=pack_args(out), sync=False, at_ns=now)
        runtime.launch_async(vecadd, addr_a, addr_a + a.nbytes,
                             args=pack_args(addr_b, addr_c), sync=False,
                             at_ns=now)
        runtime.sim.run()
        # a window boundary inside the round's launches, then one after
        for now in ((marks[-1] + platform.sim.now) / 2, platform.sim.now):
            sampler.mark(now)
            marks.append(now)

    occupancy = [value for name, _pid, _t, value in sampler.samples
                 if name == "subcore.occupancy"]
    assert len(occupancy) == len(marks) - 1 == 12
    assert max(occupancy) > 0.0
    for start, end, got in zip(marks, marks[1:], occupancy):
        expected = 0.0
        for unit in device.units:
            expected += _full_scan_mean(
                unit.occupancy.sampler.series.points, start, end)
        assert got == expected / len(device.units)
