"""NDP offloading mechanisms: M2func vs CXL.io ring buffer vs direct MMIO.

Fig 5 of the paper compares three ways to launch an NDP kernel and observe
its completion, with one-way latencies x (CXL.mem), y (CXL.io) and kernel
time z:

* **M2func** (Fig 5a): write + ack (CXL.mem), kernel, read + response.
  The fence/barrier overlaps with the kernel; total ≈ z + 2x.
* **CXL.io ring buffer** (Fig 5b): doorbell write, command-pointer DMA,
  command DMA, repeated for launch and error check → ≈ 5y before the
  kernel and 3y after: total ≈ z + 8y.  Concurrent kernels allowed.
* **CXL.io direct MMIO registers** (Fig 5c): one register write before,
  poll after → ≈ z + 3y, but the register pair is a single physical
  resource: only one kernel may be in flight at a time (§II-C).

The mechanism objects wrap a live device and reproduce end-to-end launch
timing in simulation; :func:`timeline` is the closed-form Fig 5 model used
by the fig5 bench.  It and the CXL.io paths' overheads read the trips from
:data:`HOPS`.  x is the host-visible one-way CXL.mem trip, half of Table
IV's load-to-use (``CXLConfig().load_to_use_ns / 2``); y is the
``config.COMPARATORS`` row ``cxl_io`` as it is at the call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.config import COMPARATORS, CXLConfig
from repro.host.api import LaunchHandle, M2Call, pack_args
from repro.ndp.controller import FUNC_LAUNCH

#: Fig 5: per mechanism, the link it crosses and its one-way trips on
#: that link before and after the kernel.
HOPS: dict[str, tuple[str, int, int]] = {
    "m2func": ("cxl_mem", 1, 1),       # Fig 5a: write + ack, read + response
    "cxl_io_rb": ("cxl_io", 5, 3),     # Fig 5b: doorbell + 2 DMAs, twice
    "cxl_io_dr": ("cxl_io", 1, 2),     # Fig 5c: register write; poll
}


@dataclass(frozen=True)
class OffloadTimeline:
    """Closed-form Fig 5 decomposition."""

    pre_kernel_ns: float
    post_kernel_ns: float
    kernel_ns: float

    @property
    def total_ns(self) -> float:
        return self.pre_kernel_ns + self.kernel_ns + self.post_kernel_ns

    @property
    def overhead_ns(self) -> float:
        return self.pre_kernel_ns + self.post_kernel_ns


def timeline(mechanism: str, kernel_ns: float, x_ns: float | None = None,
             y_ns: float | None = None) -> OffloadTimeline:
    """Fig 5's analytic timelines: total = z+2x / z+8y / z+3y; ``x_ns`` and
    ``y_ns`` default to the table's x and y as they are at the call."""
    if mechanism not in HOPS:
        raise ValueError(f"unknown offload mechanism {mechanism!r}")
    link, before, after = HOPS[mechanism]
    one_way_ns = x_ns if link == "cxl_mem" else y_ns
    if one_way_ns is None:
        # x: the host-visible CXL.mem trip, half of Table IV's load-to-use
        one_way_ns = (CXLConfig().load_to_use_ns / 2 if link == "cxl_mem"
                      else COMPARATORS[link]["one_way_ns"])
    return OffloadTimeline(pre_kernel_ns=before * one_way_ns,
                           post_kernel_ns=after * one_way_ns,
                           kernel_ns=kernel_ns)


class OffloadPath:
    """Launches kernels on a device through a particular mechanism.

    Each subclass implements ``launch(runtime, kernel_id, pool_base,
    pool_bound, args=b"", at_ns=0.0, on_complete=None)``, returning the
    :class:`~repro.host.api.LaunchHandle`; every launch has stride 32.
    """

    name = "abstract"
    supports_concurrency = True


class M2FuncOffload(OffloadPath):
    """The paper's mechanism: full CXL.mem M2func simulation."""

    name = "m2func"

    def launch(self, runtime, kernel_id, pool_base, pool_bound, args=b"",
               at_ns=0.0, on_complete=None) -> LaunchHandle:
        return runtime.launch_async(
            kernel_id, pool_base, pool_bound, args, sync=False,
            at_ns=at_ns, on_complete=on_complete,
        )


class _CXLioPath(OffloadPath):
    """Shared logic for the CXL.io paths: the mechanism's Fig 5 pre/post
    overheads around a direct controller launch (these paths bypass the
    packet filter)."""

    @property
    def pre_ns(self) -> float:
        return timeline(self.name, 0.0).pre_kernel_ns

    @property
    def post_ns(self) -> float:
        return timeline(self.name, 0.0).post_kernel_ns

    def _gate(self, at_ns: float, start_fn: Callable[[float], None]) -> None:
        """Admission control; default is no restriction."""
        start_fn(at_ns)

    def _release(self, handle: LaunchHandle, observed_ns: float) -> None:
        pass

    def launch(self, runtime, kernel_id, pool_base, pool_bound, args=b"",
               at_ns=0.0, on_complete=None) -> LaunchHandle:
        device = runtime.device
        call = M2Call(func=-1, issued_ns=at_ns)
        handle = LaunchHandle(call=call)

        def do_launch() -> None:
            payload = pack_args(0, kernel_id, pool_base, pool_bound, 32,
                                len(args)) + args
            launch_addr = runtime.func_addr(FUNC_LAUNCH)
            device.controller.handle_write(
                runtime.filter_entry, launch_addr, payload, device.sim.now
            )
            raw = device.physical.read_bytes(launch_addr, 8)
            instance_id = struct.unpack("<q", raw)[0]
            call._complete(instance_id, device.sim.now)
            handle.instance_id = instance_id
            if instance_id < 0:
                self._release(handle, device.sim.now)
                return

            def kernel_done(when_ns: float) -> None:
                observed = when_ns + self.post_ns
                handle.complete_ns = observed
                self._release(handle, observed)
                if on_complete is not None:
                    device.sim.schedule_at(observed,
                                           lambda: on_complete(handle))

            device.controller.add_completion_waiter(instance_id, kernel_done)

        def start(when_ns: float) -> None:
            device.sim.schedule_at(max(when_ns, device.sim.now) + self.pre_ns,
                                   do_launch)

        self._gate(at_ns, start)
        return handle


class CXLioRingBufferOffload(_CXLioPath):
    """Ring-buffer scheme (Fig 5b): concurrent kernels allowed."""

    name = "cxl_io_rb"
    supports_concurrency = True


class CXLioDirectOffload(_CXLioPath):
    """Direct MMIO registers (Fig 5c): the single register pair serializes
    launches: the next kernel may only be written once the previous one's
    completion has been observed."""

    name = "cxl_io_dr"
    supports_concurrency = False

    def __init__(self) -> None:
        self._register_free = True
        self._waiting: list[tuple[float, Callable[[float], None]]] = []

    def _gate(self, at_ns: float, start_fn: Callable[[float], None]) -> None:
        if self._register_free:
            self._register_free = False
            start_fn(at_ns)
        else:
            self._waiting.append((at_ns, start_fn))

    def _release(self, handle: LaunchHandle, observed_ns: float) -> None:
        if self._waiting:
            requested_ns, start_fn = self._waiting.pop(0)
            start_fn(max(requested_ns, observed_ns))
        else:
            self._register_free = True


def make_offload_path(name: str) -> OffloadPath:
    """Factory keyed by the names used across experiments and benches."""
    paths = {
        "m2func": M2FuncOffload,
        "cxl_io_rb": CXLioRingBufferOffload,
        "cxl_io_dr": CXLioDirectOffload,
    }
    if name not in paths:
        raise ValueError(f"unknown offload mechanism {name!r}")
    return paths[name]()
