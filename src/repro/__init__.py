"""M2NDP: Low-overhead General-purpose Near-Data Processing in CXL Memory
Expanders (MICRO 2024) — a full-system reproduction in Python.

Public API tour
---------------
* :class:`repro.sim.Simulator` — the discrete-event engine everything runs on.
* :class:`repro.ndp.M2NDPDevice` — a CXL memory expander with the M2NDP
  controller, packet filter, 32 NDP units, memory-side L2 and banked LPDDR5.
* :class:`repro.host.M2NDPRuntime` — the user-level Table II API
  (``register_kernel`` / ``launch_kernel`` / ``poll_kernel_status`` / ...).
* :mod:`repro.kernels` — the RISC-V/RVV assembly kernel library.
* :mod:`repro.workloads` — Table V workload generators and NDP/GPU/CPU runs.
* :mod:`repro.experiments` — one driver per paper figure.

Quickstart::

    from repro.sim import Simulator
    from repro.ndp import M2NDPDevice
    from repro.host import M2NDPRuntime, pack_args

    sim = Simulator()
    device = M2NDPDevice(sim)
    runtime = M2NDPRuntime(device)
    # ... allocate arrays, then runtime.run_kernel(asm, pool, args)
"""

import ctypes

#: glibc ``mallopt`` parameters (``<malloc.h>``)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap(libc=None) -> None:
    """Let glibc's heap keep the pages freed numpy temporaries leave.

    By default glibc serves a block of 128 KiB or more with ``mmap`` and
    returns it on free, and trims the heap top after a free: every fresh
    temporary of the L2/DRAM charge is faulted in again, page by page.
    Blocks below 4 MiB now come from the heap, which keeps up to 32 MiB
    of free space at its top.  4 MiB is numpy's own huge-page cutoff, so
    no heap block is advised ``MADV_HUGEPAGE`` and arrays of 4 MiB or
    more stay on ``mmap``; 32 MiB is above the largest per-launch
    transient of a kernel sweep.  Without ``mallopt`` (not glibc) this
    does nothing.
    """
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


_keep_freed_heap()

from repro.config import SystemConfig, default_system  # noqa: E402
from repro.errors import ReproError  # noqa: E402

__version__ = "1.0.0"

__all__ = ["ReproError", "SystemConfig", "default_system", "__version__"]
