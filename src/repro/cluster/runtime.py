"""ClusterRuntime: N CXL-M2NDP expanders behind one switch, one API.

Mirrors the single-device :class:`~repro.host.api.M2NDPRuntime` surface
(``alloc`` / ``alloc_array`` / ``register_kernel`` / ``launch_kernel`` /
``launch_async`` / ``run_kernel``) so existing workloads run unmodified on
1..N devices.  The moving parts:

* Every device shares **one functional byte store** (the cluster's logical
  address space — the platform's one
  :class:`~repro.host.api.HDMAllocator` maps every range on all devices,
  so an address means the same thing everywhere) while keeping its **own
  timing models**: DRAM banks, memory-side L2, CXL link, NDP units and
  execution backend.  Sharding is therefore a *timing* concern, which is
  exactly what the paper's §III-I software partitioning is.
* A :class:`~repro.cluster.placement.ClusterAllocator` records each live
  allocation's :class:`~repro.cluster.placement.ShardMap`; ``free`` gives
  a range back.
* A :class:`~repro.cluster.scheduler.LaunchScheduler` splits each logical
  launch into per-device sub-launches (using the launch ABI's offset-bias
  extension so µthread ``x2`` offsets stay pool-relative), and the runtime
  charges :meth:`CXLSwitch.peer_to_peer` for the bytes of a sub-launch's
  pool range held on a remote shard (gathers from other allocations are
  not charged) plus :meth:`CXLSwitch.host_to_device` for the M2func
  fan-out itself.
* Completion is aggregated: a :class:`ClusterLaunchHandle` finishes when
  the slowest sub-launch does.

The execution backend is the ``backend=`` argument; the scheduler policy
and partition spec are ``ClusterConfig`` fields that the ``scheduler=`` /
``partitions=`` arguments override; all are validated at construction.
The launch watchdog is off until a caller assigns ``launch_timeout_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.partitions import PartitionMap, resolve_partitions
from repro.cluster.placement import ClusterAllocator, ShardMap
from repro.cluster.scheduler import LaunchScheduler, SubLaunch
from repro.config import ClusterConfig, SystemConfig, default_system
from repro.cxl.switch import CXLSwitch
from repro.errors import (
    NONNEGATIVE,
    ConfigError,
    LaunchError,
    LaunchFailed,
    PoisonError,
    SimulationError,
    check,
)
from repro.exec.base import DEFAULT_BACKEND
from repro.host.api import HDMAllocator, LaunchHandle, M2NDPRuntime
from repro.isa.assembler import KernelProgram, assemble_kernel
from repro.obs import tracer as obs_tracer
from repro.mem.physical import PhysicalMemory
from repro.ndp.device import M2NDPDevice
from repro.ndp.kernel import KernelInstance
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Cluster runtimes use ASIDs from this base, one per device, so each
#: device's M2func region (base + asid * 64 KB) is distinct in the shared
#: functional store — concurrent sub-launch return values cannot collide.
CLUSTER_BASE_ASID = 0x10

#: M2func launch payload: 6-word header + bias word + argument bytes; used
#: to charge the fan-out write through the switch's host path.
LAUNCH_WIRE_BYTES = 56


@dataclass
class ClusterLaunchHandle:
    """Aggregated completion of one logical launch's sub-launches."""

    plan: list[SubLaunch]
    subs: list[LaunchHandle] = field(default_factory=list)
    complete_ns: float | None = None
    issued_ns: float = 0.0
    error: int | None = None
    #: Typed fault (LaunchFailed / PoisonError / ...) when the launch was
    #: accepted but lost; None for a clean completion.
    failure: Exception | None = None
    _pending: int = 0
    _callbacks: list[Callable[["ClusterLaunchHandle"], None]] = field(
        default_factory=list)

    @property
    def finished(self) -> bool:
        return self.complete_ns is not None

    def on_complete(self, callback) -> None:
        if self.finished:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _finish(self, when_ns: float) -> None:
        self.complete_ns = when_ns
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()

    def _fail(self, when_ns: float, exc: Exception) -> None:
        """Complete the handle exceptionally (fault, watchdog, poison)."""
        if not self.finished:
            self.failure = exc
            self._finish(when_ns)

    def _sub_finished(self, when_ns: float) -> None:
        if self.finished:
            return      # already failed; straggler completions are no-ops
        self._pending -= 1
        if self._pending == 0:
            self._finish(max(
                (h.complete_ns or when_ns) for h in self.subs
                if h is not None
            ))


@dataclass
class ClusterInstance:
    """Aggregate of one logical launch's per-device kernel instances.

    Presents the :class:`~repro.ndp.kernel.KernelInstance` accessors the
    workloads read (``runtime_ns`` as the cluster-wide makespan, counters
    summed), so ``run_kernel`` callers work unchanged.
    """

    handle: ClusterLaunchHandle
    instances: list[KernelInstance]

    @property
    def start_ns(self) -> float:
        return min(i.start_ns for i in self.instances
                   if i.start_ns is not None)

    @property
    def complete_ns(self) -> float:
        return max(i.complete_ns for i in self.instances
                   if i.complete_ns is not None)

    @property
    def runtime_ns(self) -> float:
        """Makespan: first sub-launch start to last sub-launch completion."""
        return self.complete_ns - self.start_ns

    @property
    def total_latency_ns(self) -> float:
        """Logical launch issue to completion: fan-out and queueing included."""
        return self.handle.complete_ns - self.handle.issued_ns

    @property
    def instructions(self) -> int:
        return sum(i.instructions for i in self.instances)

    @property
    def uthreads_done(self) -> int:
        return sum(i.uthreads_done for i in self.instances)


class _AggregateStats:
    """Read-only summing view over the cluster's stats registries."""

    def __init__(self, registries: list[StatsRegistry]) -> None:
        self._registries = registries

    def get(self, name: str, default: float = 0.0) -> float:
        values = [reg._counters[name] for reg in self._registries
                  if name in reg._counters]
        return sum(values, 0.0) if values else default

    def counters(self, prefix: str = "") -> dict[str, float]:
        merged: dict[str, float] = {}
        for reg in self._registries:
            for key, value in reg.counters(prefix).items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """Deterministically sorted merged counters (manifest-stable)."""
        merged = self.counters(prefix)
        return {key: merged[key] for key in sorted(merged)}


class ClusterRuntime:
    """Per-process handle to a multi-expander M2NDP cluster."""

    def __init__(
        self,
        system: SystemConfig | None = None,
        cluster: ClusterConfig | None = None,
        backend: str = DEFAULT_BACKEND,
        scheduler: str | None = None,
        partitions: str | None = None,
    ) -> None:
        self.sim = Simulator()
        self.system = system if system is not None else default_system()
        self.cluster_config = cluster if cluster is not None else ClusterConfig()
        if scheduler is None:
            scheduler = self.cluster_config.scheduler
        #: Resolved :class:`PartitionMap` applied uniformly to every
        #: device; an unset or empty spec is the one-partition map.
        self.partitions: PartitionMap = resolve_partitions(
            partitions if partitions is not None
            else self.cluster_config.partitions,
            self.system,
        )
        n = self.cluster_config.num_devices

        self.stats = StatsRegistry()      # switch + cluster-level counters
        self.switch = CXLSwitch(num_downstream=n, config=self.system.cxl,
                                stats=self.stats)
        self.physical = PhysicalMemory(self.system.cxl_dram.capacity_bytes)
        self.devices = [
            M2NDPDevice(self.sim, self.system, backend=backend,
                        physical=self.physical)
            for _ in range(n)
        ]
        # trace process ids: pid 0 is the host, pid 1+i is device i
        for i, device in enumerate(self.devices):
            device.trace_pid = 1 + i
            device.configure_partitions(self.partitions)
        self.runtimes = [
            M2NDPRuntime(device, asid=CLUSTER_BASE_ASID + i)
            for i, device in enumerate(self.devices)
        ]
        # one allocator for the platform: the device runtimes share it
        allocator = HDMAllocator([(rt.device, rt.asid)
                                  for rt in self.runtimes])
        for rt in self.runtimes:
            rt.allocator = allocator
        self.allocator = ClusterAllocator(
            allocator, num_devices=n,
            default_placement=self.cluster_config.placement,
            default_shard_bytes=self.cluster_config.shard_bytes,
        )
        self.scheduler = LaunchScheduler(scheduler, n)
        self.launch_timeout_ns = 0.0
        #: Armed FaultInjector, or None — the healthy-cluster default, in
        #: which every fault hook below short-circuits.
        self.faults = None
        #: The serving engine's :class:`~repro.obs.monitor.Monitoring`,
        #: or None when monitoring is off.  Hot paths guard with one
        #: attribute check, the same discipline as ``self.faults``.
        self.monitoring = None
        self._kernels: dict[int, list[int]] = {}
        self._serialize_per_device: dict[int, bool] = {}
        #: source -> assembled program: serving loops re-register the same
        #: kernel text per logical launch, and reusing one program object
        #: keeps assembly out of the launch path and lets every device's
        #: execution trace cache share one memoized code hash
        self._assembled: dict[tuple[str, str], KernelProgram] = {}
        self.now = 0.0

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def launch_timeout_ns(self) -> float:
        """Launch watchdog, 0 (off) by default: a positive value fails a
        launch still pending that many simulated ns after issue with a
        typed :class:`~repro.errors.LaunchFailed` (reason ``timeout``)
        instead of deadlocking the event loop on a stuck device."""
        return self._launch_timeout_ns

    @launch_timeout_ns.setter
    def launch_timeout_ns(self, value: float) -> None:
        check("ClusterRuntime", "launch_timeout_ns", value, NONNEGATIVE)
        self._launch_timeout_ns = value

    @property
    def device(self) -> M2NDPDevice:
        """Primary device — setup helpers written against a single-device
        runtime (``runtime.device.physical``) keep working because the
        functional store is shared cluster-wide."""
        return self.devices[0]

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def arm_faults(self, plan, heartbeat_ns: float | None = None):
        """Bind a :class:`~repro.faults.plan.FaultPlan` to this cluster.

        Returns the armed :class:`~repro.faults.injector.FaultInjector`
        (lazy import: ``faults`` depends on ``cluster``, not vice versa).
        Arming a zero-fault plan is a strict behavioral no-op.
        """
        from repro.faults.injector import DEFAULT_HEARTBEAT_NS, FaultInjector
        if self.faults is not None:
            raise ConfigError("cluster already has a fault plan armed")
        injector = FaultInjector(
            self, plan,
            heartbeat_ns=(heartbeat_ns if heartbeat_ns is not None
                          else DEFAULT_HEARTBEAT_NS),
        )
        injector.arm()
        self.faults = injector
        return injector

    # ------------------------------------------------------------------
    # memory (one allocator + shared functional store)
    # ------------------------------------------------------------------

    def alloc(self, size: int, align: int = 4096,
              placement: str | None = None,
              shard_bytes: int | None = None,
              partition: str | None = None) -> int:
        if partition is not None:
            self.partitions.share(partition)      # validates the name
        return self.allocator.alloc(size, align, placement, shard_bytes,
                                    partition=partition).base

    def alloc_array(self, array: np.ndarray, align: int = 4096,
                    placement: str | None = None,
                    shard_bytes: int | None = None,
                    partition: str | None = None) -> int:
        addr = self.alloc(array.nbytes, align, placement, shard_bytes,
                          partition=partition)
        self.physical.store_array(addr, array)
        return addr

    def free(self, addr: int) -> None:
        self.allocator.free(addr)

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        return self.physical.load_array(addr, dtype, count)

    def shard_map(self, addr: int) -> ShardMap | None:
        return self.allocator.map_for(addr)

    # ------------------------------------------------------------------
    # kernel lifecycle (fanned out to every device)
    # ------------------------------------------------------------------

    def register_kernel(self, kernel: KernelProgram | str,
                        scratchpad_bytes: int = 0,
                        name: str = "kernel") -> int:
        if isinstance(kernel, str):
            memo_key = (kernel, name)
            program = self._assembled.get(memo_key)
            if program is None:
                program = self._assembled[memo_key] = assemble_kernel(
                    kernel, name=name)
            kernel = program
        kids = []
        for rt in self.runtimes:
            # Blocking M2func calls on earlier devices stepped the shared
            # simulator; later devices issue from the advanced clock.
            rt.now = max(rt.now, self.sim.now)
            kids.append(rt.register_kernel(kernel, scratchpad_bytes, name=name))
        self._kernels[kids[0]] = kids
        # Kernels with initializer/finalizer phases (or multiple bodies)
        # keep state in the per-unit scratchpad across the launch; two
        # instances of them must not overlap on one device, so their
        # sub-launches are chained per device.  Body-only kernels read only
        # the argument block and run concurrently.
        self._serialize_per_device[kids[0]] = kernel.phased
        self._sync_now()
        return kids[0]

    def unregister_kernel(self, kernel_id: int) -> None:
        for rt, kid in zip(self.runtimes, self._device_kids(kernel_id)):
            rt.now = max(rt.now, self.sim.now)
            rt.unregister_kernel(kid)
        del self._kernels[kernel_id]
        self._sync_now()

    def _device_kids(self, kernel_id: int) -> list[int]:
        kids = self._kernels.get(kernel_id)
        if kids is None:
            raise LaunchError(f"unknown cluster kernel id {kernel_id}")
        return kids

    # ------------------------------------------------------------------
    # launching (scheduler fan-out + P2P charging)
    # ------------------------------------------------------------------

    def launch_async(self, kernel_id: int, pool_base: int, pool_bound: int,
                     args: bytes = b"", sync: bool = False, stride: int = 32,
                     at_ns: float | None = None,
                     on_complete: Callable[[ClusterLaunchHandle], None] | None = None,
                     trace_parent: int | None = None,
                     ) -> ClusterLaunchHandle:
        """Split one logical launch across the cluster (non-blocking).

        ``sync`` is accepted for API parity but sub-launches always use the
        asynchronous M2func form; completion is aggregated host-side.
        ``trace_parent`` threads the caller's span (e.g. the serving
        engine's ``serve.launch``) into the launch's trace subtree.
        """
        kids = self._device_kids(kernel_id)
        shard = self.allocator.map_for(pool_base)
        plan = self.scheduler.plan(shard, pool_base, pool_bound, stride)
        start = at_ns if at_ns is not None else max(self.now, self.sim.now)
        handle = ClusterLaunchHandle(plan=plan, issued_ns=start,
                                     _pending=len(plan))
        tracer = obs_tracer.tracer_of(self.sim)
        launch_span = None
        if tracer is not None:
            launch_span = tracer.begin(
                "cluster.launch", start, parent=trace_parent,
                sub_launches=len(plan),
            )
            handle.on_complete(
                lambda h: tracer.end(launch_span, h.complete_ns,
                                     error=h.error))
        if on_complete is not None:
            handle.on_complete(on_complete)
        if self.faults is not None:
            hit = self.faults.poison_hit(pool_base, pool_bound,
                                         self._partition_of(plan[0]))
            if hit is not None:
                # CXL data poison: µthreads sweeping the range would fault;
                # the launch completes exceptionally without issuing subs
                self.stats.add("fault.poisoned_launches")
                exc = PoisonError(hit[0], hit[1],
                                  addr=max(hit[0], pool_base))
                self.sim.schedule_at(
                    start, (lambda: handle._fail(start, exc))
                )
                return handle
        # Sub-launches of *stateful* kernels (initializer/finalizer
        # scratchpad phases, e.g. accumulating reductions) are chained per
        # device: they are not safe to run concurrently with themselves on
        # one device, and the scheduler must not create that concurrency
        # behind the app's back.  Stateless body-only kernels issue all
        # their sub-launches at once; different devices always run in
        # parallel.
        # Each queue entry carries its sub-launch's plan index — the slot
        # of ``handle.subs`` its device-side handle lands in.
        handle.subs = [None] * len(plan)
        if self._serialize_per_device.get(kernel_id, True):
            per_device: dict[int, list[tuple[int, SubLaunch]]] = {}
            for slot, sub in enumerate(plan):
                per_device.setdefault(sub.device, []).append((slot, sub))
            queues = list(per_device.values())
        else:
            queues = [[entry] for entry in enumerate(plan)]
        for queue in queues:
            self._issue_sub(handle, kids, queue, 0, args, stride, start,
                            tracer, launch_span)
        timeout = self._launch_timeout_ns
        if timeout > 0:
            deadline = start + timeout

            def watchdog() -> None:
                if handle.finished:
                    return
                self.stats.add("fault.launch_timeouts")
                if self.monitoring is not None:
                    self.monitoring.record("fault.timeout", deadline)
                handle._fail(deadline, LaunchFailed(
                    f"cluster launch still pending "
                    f"{timeout:g} ns after issue",
                    reason="timeout",
                ))

            self.sim.schedule_at(deadline, watchdog)
        return handle

    def _partition_of(self, sub: SubLaunch) -> str:
        """Where a sub-launch physically runs — its allocation's pin, else
        the default partition — so partition-scoped faults see it there."""
        return sub.partition or self.partitions.default.name

    def _issue_sub(self, handle: ClusterLaunchHandle, kids: list[int],
                   queue: list[tuple[int, SubLaunch]], index: int,
                   args: bytes, stride: int, at_ns: float,
                   tracer: obs_tracer.Tracer | None,
                   trace_parent: int | None) -> None:
        """Issue ``queue[index]``; its completion issues ``queue[index + 1]``
        (a one-entry queue is the unchained case)."""
        slot, sub = queue[index]
        if self.faults is not None:
            # a stall window holds issue to the device until it clears
            at_ns = self.faults.delay_issue(sub.device, at_ns,
                                            self._partition_of(sub))
        sub_lane = None
        if tracer is not None:
            # switch-charge spans live on the sub-launch's device lane so
            # concurrent subs never overlap within one swim-lane
            sub_lane = tracer.alloc_tid(1 + sub.device)
        ready = at_ns
        for owner, nbytes in sorted(sub.remote.items()):
            done = self.switch.peer_to_peer(at_ns, owner, sub.device, nbytes)
            ready = max(ready, done)
            self.stats.add("cluster.p2p_prefetch_bytes", nbytes)
            if tracer is not None:
                tracer.record("cxl.p2p", at_ns, done, parent=trace_parent,
                              pid=1 + sub.device, tid=sub_lane,
                              owner=owner, bytes=nbytes)
        # the M2func fan-out write itself crosses the switch (a launch
        # over a pinned allocation carries the partition tag: one extra
        # header word)
        part_index = (None if sub.partition is None
                      else self.partitions.index_of(sub.partition))
        wire_bytes = LAUNCH_WIRE_BYTES + (0 if part_index is None else 8)
        pre_fanout = ready
        ready = self.switch.host_to_device(
            ready, sub.device, wire_bytes + len(args)
        )
        self.scheduler.note_issued(sub.device)
        self.stats.add("cluster.sub_launches")
        if self.monitoring is not None:
            self.monitoring.record("sched.issue", ready, device=sub.device,
                                   base=sub.base, bound=sub.bound)
        sub_span = None
        if tracer is not None:
            tracer.record("cxl.fanout", pre_fanout, ready,
                          parent=trace_parent, pid=1 + sub.device,
                          tid=sub_lane, bytes=wire_bytes + len(args))
            sub_span = tracer.begin(
                "cluster.sub_launch", ready, parent=trace_parent,
                pid=1 + sub.device, tid=sub_lane,
                base=sub.base, bound=sub.bound)

        def sub_done(sub_handle: LaunchHandle) -> None:
            if self.faults is not None and self.faults.note_sub_completion(
                    sub.device, sub_handle):
                # completion lost: the device died first; the injector
                # fails the handle (typed) at heartbeat detection
                return
            self.scheduler.note_complete(sub.device)
            when = sub_handle.complete_ns or self.sim.now
            if tracer is not None:
                tracer.end(sub_span, when)
            if index + 1 < len(queue) and not handle.finished:
                self._issue_sub(handle, kids, queue, index + 1, args,
                                stride, when, tracer, trace_parent)
            handle._sub_finished(when)

        def acknowledged(call) -> None:
            if call.value is None:
                return
            if call.value < 0:
                handle.error = call.value
                self.scheduler.note_complete(sub.device)
                handle._sub_finished(call.done_ns or self.sim.now)
            elif tracer is not None:
                # the M2func read resolves the device-side instance id
                # after the backend may already have recorded its exec
                # span; adopt those spans under this sub-launch once the
                # id is known
                tracer.link_instance(1 + sub.device, call.value, sub_span,
                                     sub_lane)

        sub_handle = self.runtimes[sub.device].launch_async(
            kids[sub.device], sub.base, sub.bound, args=args,
            sync=False, stride=stride, at_ns=ready,
            offset_bias=sub.offset_bias, partition=part_index,
            on_complete=sub_done,
        )
        if self.faults is not None:
            self.faults.note_sub_issued(sub.device, handle, sub_handle,
                                        self._partition_of(sub))
        sub_handle.call.on_done(acknowledged)
        handle.subs[slot] = sub_handle

    def launch_kernel(self, kernel_id: int, pool_base: int, pool_bound: int,
                      args: bytes = b"", sync: bool = True,
                      stride: int = 32) -> ClusterLaunchHandle:
        """Blocking form: steps the shared simulator until every sub-launch
        completes (``sync=False`` returns once all instance IDs resolve)."""
        handle = self.launch_async(kernel_id, pool_base, pool_bound, args,
                                   stride=stride)
        failed = lambda: (handle.error is not None      # noqa: E731
                          or handle.failure is not None)
        if sync:
            self._step_until(lambda: handle.finished or failed(),
                             "cluster launch never completed")
        else:
            self._step_until(
                lambda: failed() or all(
                    h.call.done for h in handle.subs if h is not None
                ),
                "cluster launch was never acknowledged",
            )
        if handle.failure is not None:
            raise handle.failure
        if handle.error is not None:
            raise LaunchError(
                f"cluster sub-launch failed with {handle.error}", handle.error
            )
        return handle

    def run_kernel(self, source: str | KernelProgram, pool_base: int,
                   pool_bound: int, args: bytes = b"",
                   scratchpad_bytes: int = 0, stride: int = 32,
                   name: str = "kernel") -> ClusterInstance:
        """Register + launch synchronously; returns the aggregate instance."""
        kid = self.register_kernel(source, scratchpad_bytes, name=name)
        handle = self.launch_kernel(kid, pool_base, pool_bound, args,
                                    sync=True, stride=stride)
        return self.instances_of(handle)

    def instances_of(self, handle: ClusterLaunchHandle) -> ClusterInstance:
        """Resolve a finished handle's per-device kernel instances."""
        instances = [sub.instance for sub in handle.subs
                     if sub is not None and sub.instance is not None]
        if not instances:
            raise LaunchError("cluster launch produced no kernel instances")
        return ClusterInstance(handle=handle, instances=instances)

    # ------------------------------------------------------------------

    def aggregate_stats(self) -> _AggregateStats:
        """Summing view over all device registries plus the cluster's own
        (switch bytes, sub-launch and P2P counters)."""
        return _AggregateStats(
            [device.stats for device in self.devices] + [self.stats]
        )

    def _sync_now(self) -> None:
        self.now = max([self.sim.now] + [rt.now for rt in self.runtimes])

    def _step_until(self, done: Callable[[], bool], what: str) -> None:
        while not done():
            if not self.sim.step():
                raise SimulationError(f"{what} (deadlock?)")
        self._sync_now()


# ---------------------------------------------------------------------------
# platform bundle mirroring repro.workloads.base.make_platform
# ---------------------------------------------------------------------------

@dataclass
class ClusterPlatform:
    """Drop-in for :class:`~repro.workloads.base.Platform` over a cluster:
    workloads taking ``platform.runtime`` / ``platform.stats`` run as-is."""

    sim: Simulator
    runtime: ClusterRuntime
    system: SystemConfig

    @property
    def device(self) -> M2NDPDevice:
        return self.runtime.device

    @property
    def devices(self) -> list[M2NDPDevice]:
        return self.runtime.devices

    @property
    def stats(self) -> _AggregateStats:
        return self.runtime.aggregate_stats()


def make_cluster_platform(num_devices: int = 2,
                          system: SystemConfig | None = None,
                          cluster: ClusterConfig | None = None,
                          placement: str | None = None,
                          scheduler: str | None = None,
                          shard_bytes: int | None = None,
                          backend: str = DEFAULT_BACKEND,
                          partitions: str | None = None) -> ClusterPlatform:
    """Build a fresh simulator + N-expander cluster bundle.

    Keyword conveniences (``placement`` / ``scheduler`` / ``shard_bytes``)
    override the corresponding :class:`ClusterConfig` fields; a full
    ``cluster`` config wins over ``num_devices``.  ``partitions`` is a
    hardware partition spec (``"rt:1,batch:3"``) applied to every device;
    it and ``scheduler`` override the ``ClusterConfig`` field of that name.
    """
    if cluster is None:
        cluster = ClusterConfig(
            num_devices=num_devices,
            placement=placement if placement is not None else "interleaved",
            shard_bytes=shard_bytes if shard_bytes is not None else 0,
        )
    elif placement is not None or shard_bytes is not None:
        raise ConfigError(
            "pass either a full ClusterConfig or per-field overrides, not both"
        )
    runtime = ClusterRuntime(system=system, cluster=cluster,
                             backend=backend, scheduler=scheduler,
                             partitions=partitions)
    return ClusterPlatform(sim=runtime.sim, runtime=runtime,
                           system=runtime.system)
