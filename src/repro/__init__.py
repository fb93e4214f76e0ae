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

from repro.config import SystemConfig, default_system
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = ["ReproError", "SystemConfig", "default_system", "__version__"]
