"""User-level host API for M2NDP (Table II).

The runtime exposes the five NDP management functions as high-level calls —
``ndpRegisterKernel`` … ``ndpShootdownTlbEntry`` — hiding the M2func
mechanics: each call is a CXL.mem *write* carrying the arguments to the
function's offset in the process's M2func region, a fence, then a CXL.mem
*read* of the same address to fetch the return value (§III-B/C).

Two calling styles:

* **blocking** (`register_kernel`, `launch_kernel(sync=True)`, ...) — steps
  the shared simulator until the response arrives; natural for linear
  scripts and examples.
* **non-blocking** (`call_async`, `launch_async`) — issues the packets and
  invokes callbacks from simulator events; used by open-loop experiments
  (KVStore latency/throughput sweeps) that have many requests in flight.

The runtime also plays the role of the host driver and allocator: it
registers the process's M2func region in the packet filter (the one-time
CXL.io step), allocates and frees HDM with identity virtual mappings, and
pre-warms the DRAM-TLB as the paper's methodology assumes.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import LaunchError, ProtocolError, SimulationError
from repro.isa.assembler import KernelProgram, assemble_kernel
from repro.ndp.controller import (
    FUNC_LAUNCH,
    FUNC_LAUNCH_SLOT_BASE,
    FUNC_LAUNCH_SLOTS,
    FUNC_POLL,
    FUNC_REGISTER,
    FUNC_SHOOTDOWN,
    FUNC_STRIDE_SHIFT,
    FUNC_UNREGISTER,
    LAUNCH_FLAG_OFFSET_BIAS,
    LAUNCH_FLAG_PARTITION,
    LAUNCH_FLAG_SYNC,
)
from repro.ndp.device import M2NDPDevice
from repro.ndp.kernel import KernelInstance, KernelStatus

#: Host-side latency of an uncached store/load reaching the CXL port
#: (no cache-miss machinery for the uncacheable M2func region).
HOST_UNCACHED_PATH_NS = 5.0

#: Default M2func region: 64 KB per process, paper's example base.
M2FUNC_REGION_BYTES = 0x10000
M2FUNC_DEFAULT_BASE = 0x00FF0000

#: Data allocations start above the scratchpad window and M2func regions.
HDM_HEAP_BASE = 0x2000_0000


@dataclass
class M2Call:
    """Future for one M2func call (write + fence + read)."""

    func: int
    issued_ns: float
    ack_ns: float | None = None
    value: int | None = None
    done_ns: float | None = None
    _callbacks: list[Callable[["M2Call"], None]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.done_ns is not None

    def on_done(self, callback: Callable[["M2Call"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _complete(self, value: int, when_ns: float) -> None:
        self.value = value
        self.done_ns = when_ns
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()


@dataclass
class LaunchHandle:
    """Tracks one kernel launch end to end."""

    call: M2Call
    instance_id: int | None = None
    complete_ns: float | None = None  # host-observed completion
    #: The launched instance: the controller drops an asynchronous one
    #: once its completion is delivered, the handle keeps it.
    instance: KernelInstance | None = None


class HDMAllocator:
    """First-fit range allocator over HDM with identity virtual mapping.

    One per platform: it keeps the free ranges once and maps every range
    it hands out on each ``(device, asid)`` of ``spaces``, so the devices
    of a cluster see one address space.  The free list is sorted and
    coalesced, and the range of an allocation starts where its free range
    did (its alignment padding goes and comes back with it), so with
    nothing freed it hands out what a bump allocator would, and freeing
    the top range lowers the cursor again.
    """

    def __init__(self, spaces: list[tuple[M2NDPDevice, int]],
                 base: int = HDM_HEAP_BASE) -> None:
        self.spaces = list(spaces)
        #: Allocations stay below every device's DRAM-TLB region.
        self.limit = min(device.config.cxl_dram.capacity_bytes
                         - device.dram_tlb.region_bytes
                         for device, _ in self.spaces)
        #: Free ranges ``(lo, hi)``, sorted, none adjacent to the next.
        self._free: list[tuple[int, int]] = (
            [(base, self.limit)] if base < self.limit else [])
        #: Live allocation address -> the range ``(lo, hi)`` it took.
        self._live: dict[int, tuple[int, int]] = {}
        # one functional store per distinct PhysicalMemory (a cluster's
        # devices share theirs)
        self._stores = list({id(device.physical): device.physical
                             for device, _ in self.spaces}.values())

    def alloc(self, size: int, align: int = 4096) -> int:
        """Reserve ``size`` bytes below the DRAM-TLB region at the top of
        device memory; maps pages identity and warms the DRAM-TLB."""
        if size <= 0:
            raise LaunchError(f"allocation size must be positive, got {size}")
        if align <= 0 or align & (align - 1):
            raise LaunchError(
                f"alignment must be a positive power of two, got {align}")
        for index, (lo, hi) in enumerate(self._free):
            addr = (lo + align - 1) // align * align
            if addr + size <= hi:
                break
        else:
            raise LaunchError(
                f"allocation of {size:#x} bytes finds no free range below "
                f"the DRAM-TLB region at {self.limit:#x}")
        end = addr + size
        if end < hi:
            self._free[index] = (end, hi)
        else:
            del self._free[index]
        self._live[addr] = (lo, end)
        for device, asid in self.spaces:
            table = device.page_table(asid)
            table.map_identity(addr, size)
            device.dram_tlb.warm_range(asid, addr, size, table)
        return addr

    def free(self, addr: int) -> None:
        """Give back the allocation at ``addr``: its range reads zero again
        and returns to the free list.  Its pages stay mapped, so a later
        allocation over them remaps each page as it was, which leaves every
        device's ``translation_version`` (and so its trace cache) alone."""
        taken = self._live.pop(addr, None)
        if taken is None:
            raise LaunchError(
                f"free of {addr:#x}, which no live allocation starts at")
        lo, hi = taken
        for store in self._stores:
            store.clear(lo, hi - lo)
        index = bisect_left(self._free, (lo,))
        if index < len(self._free) and self._free[index][0] == hi:
            hi = self._free.pop(index)[1]
        if index and self._free[index - 1][1] == lo:
            index -= 1
            lo = self._free.pop(index)[0]
        self._free.insert(index, (lo, hi))


def pack_args(*values: int) -> bytes:
    """Pack kernel arguments as little-endian u64 words."""
    return struct.pack(f"<{len(values)}Q",
                       *[v & 0xFFFFFFFFFFFFFFFF for v in values])


class M2NDPRuntime:
    """Per-process handle to one CXL-M2NDP device."""

    def __init__(self, device: M2NDPDevice, asid: int = 0x7,
                 m2func_base: int | None = None) -> None:
        self.device = device
        self.sim = device.sim
        self.asid = asid
        base = m2func_base if m2func_base is not None else (
            M2FUNC_DEFAULT_BASE + asid * M2FUNC_REGION_BYTES
        )
        # One-time driver step over CXL.io: insert the region into the
        # packet filter.  After this, CXL.io is never used again (§III-B).
        self.filter_entry = device.packet_filter.insert(
            asid, base, base + M2FUNC_REGION_BYTES
        )
        self.allocator = HDMAllocator([(device, asid)])
        self.now = 0.0
        self._next_code_loc = 0x0100_0000 + asid * 0x0010_0000
        # Launch doorbell slots: each in-flight launch call needs its own
        # M2func address or concurrent calls clobber each other's return
        # values (see FUNC_LAUNCH_SLOT_BASE in repro.ndp.controller).
        self._free_launch_slots = deque(range(FUNC_LAUNCH_SLOTS))

    # ------------------------------------------------------------------
    # memory helpers (functional setup of workload data in HDM)
    # ------------------------------------------------------------------

    def alloc(self, size: int, align: int = 4096) -> int:
        return self.allocator.alloc(size, align)

    def free(self, addr: int) -> None:
        self.allocator.free(addr)

    def alloc_array(self, array: np.ndarray, align: int = 4096) -> int:
        addr = self.alloc(array.nbytes, align)
        self.device.physical.store_array(addr, array)
        return addr

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        return self.device.physical.load_array(addr, dtype, count)

    # ------------------------------------------------------------------
    # low-level M2func machinery
    # ------------------------------------------------------------------

    def func_addr(self, func: int) -> int:
        """Host-visible address of one M2func function in this process's
        region (Table II: functions are strided 32 B from the base).

        Offload mechanisms and tests use this to target M2func calls
        directly; it is part of the runtime's public surface.
        """
        return self.filter_entry.base + (func << FUNC_STRIDE_SHIFT)

    def call_async(self, func: int, payload: bytes,
                   at_ns: float | None = None,
                   func_index: int | None = None) -> M2Call:
        """Issue write → fence → read; the returned future resolves with the
        function's return value at host-observed time.

        ``func_index`` overrides the region offset the call targets while
        ``func`` stays the logical function — used by the launch doorbell
        slots, which alias ndpLaunchKernel at distinct addresses.
        """
        start = self.now if at_ns is None else at_ns
        addr = self.func_addr(func if func_index is None else func_index)
        call = M2Call(func=func, issued_ns=start)

        ack_time = self.device.host_write(
            start + HOST_UNCACHED_PATH_NS, addr, payload
        )
        call.ack_ns = ack_time

        def issue_read() -> None:
            def on_response(data: bytes, when_ns: float) -> None:
                value = struct.unpack("<q", data[:8])[0]
                call._complete(value, when_ns + HOST_UNCACHED_PATH_NS)

            self.device.host_read(
                self.sim.now + HOST_UNCACHED_PATH_NS, addr, 8, on_response
            )

        # The fence orders the read after the write's ack.
        self.sim.schedule_at(ack_time, issue_read)
        return call

    def _await(self, call: M2Call) -> int:
        """Step the simulator until the call resolves (blocking style)."""
        while not call.done:
            if not self.sim.step():
                raise SimulationError(
                    f"M2func call {call.func} never completed (deadlock?)"
                )
        self.now = max(self.now, call.done_ns or 0.0)
        if call.value is None:
            raise ProtocolError(
                f"M2func call {call.func} resolved without a response"
            )
        return call.value

    # ------------------------------------------------------------------
    # Table II API — blocking style
    # ------------------------------------------------------------------

    def register_kernel(self, kernel: KernelProgram | str,
                        scratchpad_bytes: int = 0,
                        name: str = "kernel") -> int:
        """ndpRegisterKernel: returns the kernel ID (or raises on ERR)."""
        if isinstance(kernel, str):
            kernel = assemble_kernel(kernel, name=name)
        code_loc = self._next_code_loc
        self._next_code_loc += 0x1000
        self.device.install_code(code_loc, kernel)
        usage = kernel.usage
        payload = pack_args(code_loc, scratchpad_bytes, usage.int_regs,
                            usage.float_regs, usage.vector_regs)
        value = self._await(self.call_async(FUNC_REGISTER, payload))
        if value < 0:
            raise LaunchError(f"ndpRegisterKernel failed with {value}", value)
        return value

    def unregister_kernel(self, kernel_id: int) -> None:
        value = self._await(
            self.call_async(FUNC_UNREGISTER, pack_args(kernel_id))
        )
        if value < 0:
            raise LaunchError(f"ndpUnregisterKernel failed with {value}", value)

    def launch_kernel(self, kernel_id: int, pool_base: int, pool_bound: int,
                      args: bytes = b"", sync: bool = True,
                      stride: int = 32) -> LaunchHandle:
        """ndpLaunchKernel (blocking).

        With ``sync=True`` the return-value read responds only after the
        kernel finishes, so this returns with the kernel done and
        ``handle.complete_ns`` set.  With ``sync=False`` it returns as soon
        as the instance ID is known.
        """
        handle = self.launch_async(kernel_id, pool_base, pool_bound, args,
                                   sync=sync, stride=stride)
        value = self._await(handle.call)
        if value < 0:
            raise LaunchError(f"ndpLaunchKernel failed with {value}", value)
        return handle             # filled in by launch_async's callbacks

    def launch_async(self, kernel_id: int, pool_base: int, pool_bound: int,
                     args: bytes = b"", sync: bool = False, stride: int = 32,
                     at_ns: float | None = None,
                     on_complete: Callable[[LaunchHandle], None] | None = None,
                     offset_bias: int = 0,
                     partition: int | None = None) -> LaunchHandle:
        """ndpLaunchKernel (non-blocking): callbacks fire from sim events.

        ``offset_bias`` (cluster extension, see :mod:`repro.cluster`) shifts
        every body µthread's ``x2`` so a sub-launch over a slice of a larger
        logical pool computes the same offsets a whole-pool launch would.
        ``partition`` (hardware-partitioning extension, see
        :mod:`repro.cluster.partitions`) tags the launch with the index of
        the partition it is pinned to; untagged launches run in the
        device's default partition.  With both left at their defaults the
        payload is byte-identical to the plain Table II call.
        """
        flags = LAUNCH_FLAG_SYNC if sync else 0
        header = [flags, kernel_id, pool_base, pool_bound, stride, len(args)]
        if offset_bias:
            header[0] |= LAUNCH_FLAG_OFFSET_BIAS
            header.append(offset_bias)
        if partition is not None:
            header[0] |= LAUNCH_FLAG_PARTITION
            header.append(partition)
        payload = pack_args(*header) + args
        if not self._free_launch_slots:
            raise SimulationError(
                f"all {FUNC_LAUNCH_SLOTS} launch doorbell slots in flight; "
                "throttle concurrent launch_async calls"
            )
        slot = self._free_launch_slots.popleft()
        call = self.call_async(FUNC_LAUNCH, payload, at_ns=at_ns,
                               func_index=FUNC_LAUNCH_SLOT_BASE + slot)
        call.on_done(lambda _c: self._free_launch_slots.append(slot))
        handle = LaunchHandle(call=call)

        def kernel_done(when_ns: float) -> None:
            handle.complete_ns = when_ns
            if on_complete is not None:
                on_complete(handle)

        def on_value(resolved: M2Call) -> None:
            if resolved.value is None or resolved.value < 0:
                return
            handle.instance_id = resolved.value
            handle.instance = self.device.controller.instances[
                handle.instance_id]
            if sync:
                # the return-value read only responded once the kernel
                # had finished
                kernel_done(resolved.done_ns)
            else:
                self.device.controller.add_completion_waiter(
                    handle.instance_id, kernel_done
                )

        call.on_done(on_value)
        return handle

    def poll_kernel_status(self, instance_id: int) -> KernelStatus:
        value = self._await(self.call_async(FUNC_POLL, pack_args(instance_id)))
        if value < 0:
            raise LaunchError(f"ndpPollKernelStatus failed with {value}", value)
        return KernelStatus(value)

    def shootdown_tlb(self, asid: int, vpn: int) -> None:
        value = self._await(
            self.call_async(FUNC_SHOOTDOWN, pack_args(asid, vpn))
        )
        if value < 0:
            raise LaunchError(f"ndpShootdownTlbEntry failed with {value}", value)

    # ------------------------------------------------------------------

    def run_kernel(self, source: str | KernelProgram, pool_base: int,
                   pool_bound: int, args: bytes = b"",
                   scratchpad_bytes: int = 0, stride: int = 32,
                   name: str = "kernel"):
        """Register + launch synchronously; returns the finished instance."""
        kid = self.register_kernel(source, scratchpad_bytes, name=name)
        handle = self.launch_kernel(kid, pool_base, pool_bound, args,
                                    sync=True, stride=stride)
        return self.instances_of(handle)

    def instances_of(self, handle: LaunchHandle):
        """Resolve a finished handle's kernel instance."""
        if handle.instance is None:
            raise LaunchError("launch finished without an instance")
        return handle.instance
