"""The NDP controller: M2func decoding and kernel lifecycle management.

Implemented "similarly to the microcontrollers in GPUs" (§III-B), the
controller receives CXL.mem writes that the packet filter matched against a
process's M2func region, decodes the function from the address offset
(Table II), executes it, and stores the return value at the call address so
a subsequent CXL.mem *read* of the same address retrieves it.

Synchronous launches defer that read's response until the kernel instance
completes; asynchronous launches respond immediately and are later polled
with ``ndpPollKernelStatus``.  The controller keeps a synchronous instance
for good, an asynchronous one until its completion has been delivered to
its waiters: so a reused device holds no record per finished launch.

Call encodings (all fields little-endian u64 in the write payload):

====================  ======================================================
offset 0              ndpRegisterKernel(codeLoc, spadBytes, nInt, nFloat, nVec)
offset 1<<5           ndpUnregisterKernel(kernelID)
offset 2<<5           ndpLaunchKernel(sync, kernelID, poolBase, poolBound,
                      stride, argBytes, args...)
offset 3<<5           ndpPollKernelStatus(instanceID)
offset 4<<5           ndpShootdownTlbEntry(asid, vpn)   [privileged]
====================  ======================================================
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass, field
from typing import Callable

from repro.cxl.packet_filter import FilterEntry
from repro.errors import AT_LEAST_ONE, ProtocolError, check
from repro.mem.scratchpad import write_rows
from repro.ndp.generator import KernelExecution
from repro.ndp.kernel import KernelDescriptor, KernelInstance, KernelStatus

#: Function offsets (Table II), strided by 32 B.
FUNC_STRIDE_SHIFT = 5
FUNC_REGISTER = 0
FUNC_UNREGISTER = 1
FUNC_LAUNCH = 2
FUNC_POLL = 3
FUNC_SHOOTDOWN = 4

#: Launch doorbell slots: offsets [8, 8+64) alias ndpLaunchKernel.  The
#: M2func return value is stored *at the call address*, so a process with
#: many launches in flight (open-loop serving, cluster fan-out) must issue
#: them at distinct addresses or concurrent calls clobber each other's
#: return values before the paired read arrives.  A 64-entry doorbell
#: array inside the 64 KB region gives every in-flight launch its own
#: address; register/poll/etc. stay blocking and keep their Table II slots.
FUNC_LAUNCH_SLOT_BASE = 8
FUNC_LAUNCH_SLOTS = 64


def decode_func(offset: int) -> int:
    """Map an M2func region offset to its logical function."""
    func = offset >> FUNC_STRIDE_SHIFT
    if FUNC_LAUNCH_SLOT_BASE <= func < FUNC_LAUNCH_SLOT_BASE + FUNC_LAUNCH_SLOTS:
        return FUNC_LAUNCH
    return func

#: ndpLaunchKernel first-word flags.  The paper's API carries only ``sync``;
#: the offset-bias bit is this repo's multi-expander extension (§III-I
#: software partitioning turned into a protocol field, see repro.cluster)
#: and the partition bit binds the launch to one hardware partition (one
#: extra u64 — the partition index — follows the offset bias when both
#: flags are set; see repro.cluster.partitions).  Untagged launches run
#: in partition 0.
LAUNCH_FLAG_SYNC = 1 << 0
LAUNCH_FLAG_OFFSET_BIAS = 1 << 1
LAUNCH_FLAG_PARTITION = 1 << 2

#: Error codes (Table II: ERR is a negative value).
ERR_GENERIC = -1
ERR_UNKNOWN_KERNEL = -2
ERR_QUEUE_FULL = -3
ERR_BAD_ARGS = -4

#: Controller processing latency per M2func call (GPU-microcontroller-like).
CONTROLLER_LATENCY_NS = 10.0

_U64 = struct.Struct("<q")


def _pack_i64(value: int) -> bytes:
    return _U64.pack(value)


def _read_u64s(data: bytes, count: int) -> list[int]:
    if len(data) < count * 8:
        raise ProtocolError(
            f"M2func payload too short: need {count * 8} bytes, got {len(data)}"
        )
    return [struct.unpack_from("<Q", data, i * 8)[0] for i in range(count)]


@dataclass
class ReadResponse:
    """Outcome of an M2func-region read."""

    data: bytes
    ready_ns: float | None      # None => deferred until the kernel finishes
    waiting_instance: int | None = None


class NDPController:
    """Decodes M2func calls and manages kernels on one M2NDP device."""

    def __init__(self, device, queue_capacity: int = 4096) -> None:
        check("NDPController", "queue_capacity", queue_capacity,
              AT_LEAST_ONE)
        # weak: the device owns its controller, not the other way round
        self._device = weakref.ref(device)
        self.queue_capacity = queue_capacity
        self.kernels: dict[int, KernelDescriptor] = {}
        #: Synchronous instances, and asynchronous ones whose completion
        #: has not been delivered yet (see :meth:`_deliver`).
        self.instances: dict[int, KernelInstance] = {}
        #: Started executions by instance id; the launch queue and the
        #: running count they are admitted against live on each
        #: :class:`~repro.ndp.device.DevicePartition`.
        self.active: dict[int, KernelExecution] = {}
        self._next_kernel_id = 1
        self._next_instance_id = 1
        self._completion_waiters: dict[int, list[Callable[[float], None]]] = {}

    @property
    def device(self):
        return self._device()

    # ------------------------------------------------------------------
    # M2func entry points (called by the device's packet path)
    # ------------------------------------------------------------------

    def handle_write(self, entry: FilterEntry, addr: int, data: bytes,
                     now_ns: float) -> float:
        """Process an M2func call; returns the controller-done timestamp."""
        done = now_ns + CONTROLLER_LATENCY_NS
        func = decode_func(addr - entry.base)
        if func == FUNC_REGISTER:
            result = self._register(data)
        elif func == FUNC_UNREGISTER:
            result = self._unregister(data)
        elif func == FUNC_LAUNCH:
            result = self._launch(entry.asid, data, done)
        elif func == FUNC_POLL:
            result = self._poll(data)
        elif func == FUNC_SHOOTDOWN:
            result = self._shootdown(data)
        else:
            result = ERR_GENERIC
        # Store the return value at the call address: a subsequent normal
        # read of that address observes it (§III-B).
        self.device.physical.write_bytes(addr, _pack_i64(result))
        self.device.stats.add("m2func.calls")
        return done

    def handle_read(self, entry: FilterEntry, addr: int, size: int,
                    now_ns: float) -> ReadResponse:
        """Serve a read in the M2func region (fetch a return value)."""
        func = decode_func(addr - entry.base)
        data = self.device.physical.read_bytes(addr, size)
        if func == FUNC_LAUNCH and len(data) >= 8:
            # The bytes at the call address hold the launched instance's ID
            # (stored by handle_write); a *synchronous* launch defers this
            # read's response until that instance finishes (§III-B).
            (instance_id,) = struct.unpack_from("<q", data)
            instance = self.instances.get(instance_id)
            if (instance is not None and instance.synchronous
                    and instance.status is not KernelStatus.FINISHED):
                return ReadResponse(data=data, ready_ns=None,
                                    waiting_instance=instance.instance_id)
        return ReadResponse(data=data, ready_ns=now_ns + CONTROLLER_LATENCY_NS)

    def add_completion_waiter(self, instance_id: int,
                              callback: Callable[[float], None]) -> None:
        instance = self.instances.get(instance_id)
        if instance is not None and instance.status is KernelStatus.FINISHED:
            self._deliver(instance, [callback], instance.complete_ns or 0.0)
            return
        self._completion_waiters.setdefault(instance_id, []).append(callback)

    def _deliver(self, instance: KernelInstance,
                 waiters: list[Callable[[float], None]],
                 now_ns: float) -> None:
        """Run a finished instance's waiters, then drop it if it is
        asynchronous (its launch handle keeps it)."""
        for callback in waiters:
            callback(now_ns)
        if not instance.synchronous:
            self.instances.pop(instance.instance_id, None)

    # ------------------------------------------------------------------
    # Table II functions
    # ------------------------------------------------------------------

    def _register(self, data: bytes) -> int:
        try:
            code_loc, spad_bytes, n_int, n_float, n_vec = _read_u64s(data, 5)
        except ProtocolError:
            return ERR_BAD_ARGS
        program = self.device.code_registry.get(code_loc)
        if program is None:
            return ERR_BAD_ARGS
        usage = program.usage
        if (n_int < usage.int_regs or n_float < usage.float_regs
                or n_vec < usage.vector_regs):
            return ERR_BAD_ARGS
        kernel_id = self._next_kernel_id
        self._next_kernel_id += 1
        self.kernels[kernel_id] = KernelDescriptor(
            kernel_id=kernel_id,
            program=program,
            scratchpad_bytes=spad_bytes,
            usage=usage,
            name=program.name,
        )
        return kernel_id

    def _unregister(self, data: bytes) -> int:
        try:
            (kernel_id,) = _read_u64s(data, 1)
        except ProtocolError:
            return ERR_BAD_ARGS
        if kernel_id not in self.kernels:
            return ERR_UNKNOWN_KERNEL
        del self.kernels[kernel_id]
        # Instruction caches are flushed on unregister to avoid stale code
        # (§III-F); we track the event for the record.
        self.device.stats.add("ndp.icache_flushes")
        return 0

    def _launch(self, asid: int, data: bytes, now_ns: float) -> int:
        try:
            flags, kernel_id, base, bound, stride, arg_bytes = _read_u64s(data, 6)
        except ProtocolError:
            return ERR_BAD_ARGS
        # Bit 0 of the first word is the Table II ``sync`` flag.  Bit 1 is
        # the cluster sub-launch extension: one extra u64 (the µthread
        # offset bias) follows the 6-word header before the argument bytes.
        # Bit 2 appends one more u64: the hardware partition index.
        offset_bias = 0
        args_at = 48
        if flags & LAUNCH_FLAG_OFFSET_BIAS:
            try:
                (offset_bias,) = _read_u64s(data[48:], 1)
            except ProtocolError:
                return ERR_BAD_ARGS
            args_at = 56
        # Every launch belongs to exactly one partition; untagged launches
        # land in the default (first).
        partition = 0
        if flags & LAUNCH_FLAG_PARTITION:
            try:
                (partition,) = _read_u64s(data[args_at:], 1)
            except ProtocolError:
                return ERR_BAD_ARGS
            args_at += 8
            if partition >= len(self.device.partitions):
                return ERR_BAD_ARGS
        part = self.device.partitions[partition]
        kernel = self.kernels.get(kernel_id)
        if kernel is None:
            return ERR_UNKNOWN_KERNEL
        args = data[args_at:args_at + arg_bytes]
        if len(args) < arg_bytes:
            return ERR_BAD_ARGS
        if len(part.queue) >= self.queue_capacity:
            return ERR_QUEUE_FULL
        instance = KernelInstance(
            instance_id=self._next_instance_id,
            kernel=kernel,
            pool_base=base,
            pool_bound=bound,
            args=args,
            synchronous=bool(flags & LAUNCH_FLAG_SYNC),
            asid=asid,
            uthread_stride=stride or 32,
            offset_bias=offset_bias,
            partition=partition,
            launch_ns=now_ns,
        )
        self._next_instance_id += 1
        self.instances[instance.instance_id] = instance
        if part.running < self.device.config.ndp.max_concurrent_kernels:
            self._start_instance(instance, now_ns)
        else:
            part.queue.append(instance)
        return instance.instance_id

    def _poll(self, data: bytes) -> int:
        try:
            (instance_id,) = _read_u64s(data, 1)
        except ProtocolError:
            return ERR_BAD_ARGS
        instance = self.instances.get(instance_id)
        if instance is not None:
            return instance.status.value
        if 0 < instance_id < self._next_instance_id:
            return KernelStatus.FINISHED.value    # delivered and dropped
        return ERR_GENERIC

    def _shootdown(self, data: bytes) -> int:
        try:
            asid, vpn = _read_u64s(data, 2)
        except ProtocolError:
            return ERR_BAD_ARGS
        self.device.dram_tlb.shootdown(asid, vpn)
        for unit in self.device.units:
            unit.dtlb.shootdown(asid, vpn)
            unit.itlb.shootdown(asid, vpn)
        return 0    # idempotent success whether or not an entry was cached

    # ------------------------------------------------------------------
    # kernel lifecycle
    # ------------------------------------------------------------------

    def _start_instance(self, instance: KernelInstance, now_ns: float) -> None:
        ndp = self.device.config.ndp
        part = self.device.partitions[instance.partition]
        execution = KernelExecution(
            instance=instance,
            num_units=part.num_units,
            slots_per_unit=ndp.subcores_per_unit * ndp.uthread_slots_per_subcore,
            vector_bytes=ndp.vector_bytes,
            scratchpad_bytes=ndp.scratchpad_bytes,
            max_concurrent_kernels=ndp.max_concurrent_kernels,
            on_complete=self._on_kernel_complete,
            unit_base=part.unit_base,
            partition=part,
        )
        self.active[instance.instance_id] = execution
        part.running += 1
        # Kernel arguments are placed in each unit's scratchpad (§III-G);
        # a launch only touches *its* partition's units' scratchpads.
        if instance.args:
            window = slice(part.unit_base, part.unit_base + part.num_units)
            write_rows([unit.scratchpad for unit in self.device.units[window]],
                       self.device.scratchpads[window],
                       execution.args_vaddr, instance.args)
        execution.start(now_ns)
        self.device.register_execution(execution, now_ns)

    def _on_kernel_complete(self, execution: KernelExecution,
                            now_ns: float) -> None:
        instance = execution.instance
        part = execution.partition
        self.active.pop(instance.instance_id, None)
        self.device.unregister_execution(execution)
        self.device.stats.add("ndp.kernels_completed")
        part.running -= 1
        if part.private:
            self.device.stats.add(f"partition.{part.name}.kernels_completed")
        waiters = self._completion_waiters.pop(instance.instance_id, None)
        if waiters:
            self._deliver(instance, waiters, now_ns)
        max_active = self.device.config.ndp.max_concurrent_kernels
        if part.queue and part.running < max_active:
            self._start_instance(part.queue.popleft(), now_ns)
