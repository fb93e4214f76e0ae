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
by the fig5 bench.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.host.api import LaunchHandle, M2Call, pack_args
from repro.ndp.controller import FUNC_LAUNCH

#: One-way latency defaults (§IV-A / Fig 5): x = 75 ns CXL.mem,
#: y = 500 ns CXL.io (from ~1 µs DMA).
CXL_MEM_ONE_WAY_NS = 75.0
CXL_IO_ONE_WAY_NS = 500.0


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


def timeline(mechanism: str, kernel_ns: float,
             x_ns: float = CXL_MEM_ONE_WAY_NS,
             y_ns: float = CXL_IO_ONE_WAY_NS) -> OffloadTimeline:
    """Fig 5's analytic timelines: total = z+2x / z+8y / z+3y."""
    if mechanism == "m2func":
        return OffloadTimeline(pre_kernel_ns=x_ns, post_kernel_ns=x_ns,
                               kernel_ns=kernel_ns)
    if mechanism == "cxl_io_rb":
        return OffloadTimeline(pre_kernel_ns=5 * y_ns, post_kernel_ns=3 * y_ns,
                               kernel_ns=kernel_ns)
    if mechanism == "cxl_io_dr":
        return OffloadTimeline(pre_kernel_ns=y_ns, post_kernel_ns=2 * y_ns,
                               kernel_ns=kernel_ns)
    raise ValueError(f"unknown offload mechanism {mechanism!r}")


class OffloadPath:
    """Launches kernels on a device through a particular mechanism.

    Each subclass implements ``launch(runtime, kernel_id, pool_base,
    pool_bound, args=b"", stride=32, at_ns=0.0, on_complete=None)``,
    returning the :class:`~repro.host.api.LaunchHandle`.
    """

    name = "abstract"
    supports_concurrency = True


class M2FuncOffload(OffloadPath):
    """The paper's mechanism: full CXL.mem M2func simulation."""

    name = "m2func"

    def launch(self, runtime, kernel_id, pool_base, pool_bound, args=b"",
               stride=32, at_ns=0.0, on_complete=None) -> LaunchHandle:
        return runtime.launch_async(
            kernel_id, pool_base, pool_bound, args, sync=False,
            stride=stride, at_ns=at_ns, on_complete=on_complete,
        )


class _CXLioPath(OffloadPath):
    """Shared logic for the CXL.io paths: fixed pre/post overheads around a
    direct controller launch (these paths bypass the packet filter)."""

    pre_ns = 0.0
    post_ns = 0.0

    def _gate(self, at_ns: float, start_fn: Callable[[float], None]) -> None:
        """Admission control; default is no restriction."""
        start_fn(at_ns)

    def _release(self, handle: LaunchHandle, observed_ns: float) -> None:
        pass

    def launch(self, runtime, kernel_id, pool_base, pool_bound, args=b"",
               stride=32, at_ns=0.0, on_complete=None) -> LaunchHandle:
        device = runtime.device
        call = M2Call(func=-1, issued_ns=at_ns)
        handle = LaunchHandle(call=call)

        def do_launch() -> None:
            payload = pack_args(0, kernel_id, pool_base, pool_bound, stride,
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
    """Ring-buffer scheme (Fig 5b): ~2.5 µs before, ~1.5 µs after."""

    name = "cxl_io_rb"
    supports_concurrency = True
    pre_ns = 5 * CXL_IO_ONE_WAY_NS
    post_ns = 3 * CXL_IO_ONE_WAY_NS


class CXLioDirectOffload(_CXLioPath):
    """Direct MMIO registers (Fig 5c): ~0.5 µs before, ~1 µs after, and the
    single register pair serializes launches: the next kernel may only be
    written once the previous one's completion has been observed."""

    name = "cxl_io_dr"
    supports_concurrency = False
    pre_ns = CXL_IO_ONE_WAY_NS
    post_ns = 2 * CXL_IO_ONE_WAY_NS

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
