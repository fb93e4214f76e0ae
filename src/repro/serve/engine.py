"""The serving engine: SLO-aware multi-tenant frontend over a cluster.

Event flow, all in simulated time on the cluster's shared simulator:

1. **Arrivals** — each tenant's :class:`ArrivalProcess` (seeded from
   ``ClusterConfig.seed``) schedules request arrivals; closed-loop
   streams regenerate from completion feedback.
2. **Admission** — the :class:`AdmissionController` sheds arrivals that
   exceed the tenant's token-bucket rate contract or queue-depth cap.
3. **Queueing + scheduling** — admitted requests queue per tenant
   (deadline-aware EDF order) and the :class:`QoSScheduler` picks the
   next tenant to serve (weighted-fair with latency-class priority and
   batch-class aging; plain FIFO as the baseline).
4. **Batching** — the :class:`DynamicBatcher` fuses a run of queue-head
   requests into one cluster launch under the tenant workload's ``fuse``
   mode (``"slices"`` / ``"scatter"``; the engine never asks what kind
   a tenant is), holding a lone ``"slices"`` head briefly
   when batchmates may still arrive.
5. **Dispatch** — at most ``active_devices x inflight_per_device``
   launches are in flight; the :class:`Autoscaler` hook moves the active
   device count against windowed utilization.  Every launch is a race
   among its issued copies — one, unless a hedge timer enters a
   duplicate — and ends in one place (``_complete``), whether it was
   served, failed, or could not be routed at all.
6. **Accounting** — :class:`ServingStats` streams per-tenant latency
   distributions, SLO attainment, shed counts and windowed throughput
   into the cluster's :class:`~repro.sim.stats.StatsRegistry`.
7. **Give back** — once the report is built and verified, the engine
   snapshots each tenant's result region and frees every range its
   tenants allocated, so the next engine on the platform gets the same
   bases (and hits the traces this one left).

Tracing follows :mod:`repro.obs.tracer`'s one off-discipline: the engine
resolves ``tracer_of(sim)`` once in :meth:`ServingEngine.run` and every
span site tests ``self._tracer is not None``.

The scheduler, batch policy and monitoring switch are constructor
arguments, checked at construction.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from repro.cluster.runtime import ClusterPlatform
from repro.errors import (AT_LEAST_ONE, FLAG, POSITIVE, ConfigError,
                          DeviceUnavailable, PoisonError, check)
from repro.obs import tracer as obs_tracer
from repro.obs.monitor import DEFAULT_MONITOR_INTERVAL_NS, Monitoring
from repro.obs.timeline import UtilizationSampler
from repro.serve.admission import ADMIT, AdmissionController
from repro.serve.arrivals import make_arrival_process, stream_rng
from repro.serve.autoscaler import AutoscalePolicy, Autoscaler
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.qos import (
    DEFAULT_SERVE_SCHEDULER,
    DEFAULT_STARVATION_NS,
    QoSScheduler,
    Request,
    RequestQueue,
)
from repro.serve.stats import ServingReport, ServingStats
from repro.serve.tenant import LaunchPlan, TenantSpec, TenantWorkload

#: Host-side per-launch compute (request parsing, dispatch) — paid once
#: per *launch*, so batching amortizes it across the batch.
HOST_DISPATCH_NS = 150.0

#: Default concurrent launches per active device.
DEFAULT_INFLIGHT_PER_DEVICE = 4


class _TenantState:
    """Engine-side runtime state for one tenant."""

    def __init__(self, platform: ClusterPlatform, spec: TenantSpec,
                 seed: int) -> None:
        self.spec = spec
        self.workload = TenantWorkload(platform, spec, seed)
        self.process = make_arrival_process(
            spec.arrivals, stream_rng(seed, spec.name + "#arrivals")
        )
        #: Deterministic jitter stream for retry backoff (seeded like the
        #: arrival stream, so retries replay byte-identically per seed).
        self.retry_rng = stream_rng(seed, spec.name + "#retry")
        self.issued = 0               # next request index

    @property
    def more_arrivals(self) -> bool:
        """Will further arrival events fire after now?  (``process.exhausted``
        only says the open-loop times are all *generated* — they may still
        be future simulator events a held batch can wait for.)"""
        return self.issued < self.spec.total_requests


@dataclass
class _Launch:
    """One dispatched batch, from ``_dispatch`` to ``_complete``."""

    state: _TenantState
    requests: list[Request]
    plan: LaunchPlan
    #: Hardware partition whose in-flight share the launch occupies
    #: (None: unpinned, counted but never capped).
    partition: str | None
    span: int | None = None       # ``serve.launch`` trace span


class ServingEngine:
    """Runs tenant traffic against a :class:`ClusterRuntime` to completion."""

    def __init__(
        self,
        platform: ClusterPlatform,
        tenants: list[TenantSpec],
        scheduler: str | None = DEFAULT_SERVE_SCHEDULER,
        batch: BatchPolicy = BatchPolicy(),
        autoscale: AutoscalePolicy = AutoscalePolicy(),
        inflight_per_device: int = DEFAULT_INFLIGHT_PER_DEVICE,
        starvation_ns: float = DEFAULT_STARVATION_NS,
        stats_window_ns: float | None = None,
        monitoring: bool = True,
        objectives: dict | None = None,
        incident_dir: str | None = None,
    ) -> None:
        if not tenants:
            raise ConfigError("serving engine needs at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {names}")
        check("ServingEngine", "inflight_per_device", inflight_per_device,
              AT_LEAST_ONE)
        check("ServingEngine", "monitoring", monitoring, FLAG)

        self.platform = platform
        self.sim = platform.sim
        self.runtime = platform.runtime
        seed = self.runtime.cluster_config.seed

        # None is a caller forwarding no choice of its own: the default
        self.scheduler = QoSScheduler(
            policy=(scheduler if scheduler is not None
                    else DEFAULT_SERVE_SCHEDULER),
            weights={s.name: s.weight for s in tenants},
            starvation_ns=starvation_ns,
        )
        self.batcher = DynamicBatcher(batch)
        self.autoscaler = Autoscaler(autoscale, self.runtime.num_devices)
        # the engine runs one periodic tick driving both the utilization
        # observations and the stats-timeline windows; stats_window_ns
        # overrides its cadence (e.g. windows finer than the run span)
        # without having to touch the autoscale policy
        if stats_window_ns is None:
            stats_window_ns = autoscale.interval_ns
        check("ServingEngine", "stats_window_ns", stats_window_ns, POSITIVE)
        self._tick_interval = stats_window_ns
        self.inflight_per_device = inflight_per_device
        self.admission = AdmissionController()
        for spec in tenants:
            self.admission.configure(
                spec.name, rate_limit_rps=spec.rate_limit_rps,
                burst=spec.burst, max_queue_depth=spec.max_queue_depth,
            )

        self.queue = RequestQueue()
        self.stats = ServingStats(self.runtime.stats, tenants)
        # Workload setup below steps the simulator (M2func registration);
        # tenant states must be built before arrivals are scheduled.
        maps = self.runtime.allocator.maps
        known = {id(shard) for shard in maps}
        self.tenants = {spec.name: _TenantState(platform, spec, seed)
                        for spec in tenants}
        #: Bases of the ranges the tenants allocated; :meth:`run` frees
        #: them after taking :attr:`_snapshots`.
        self._owned = [shard.base for shard in maps if id(shard) not in known]
        self._snapshots: dict[str, bytes] = {}

        # Always-on monitoring stack (monitoring=False disables it, and
        # then *nothing* of it exists: no ring appends, no monitor beats —
        # byte-identical to the unmonitored engine).  The monitor only
        # reads counters, so enabling it never changes workload results.
        # The runtime gets this engine's stack or None, never the stack
        # of an engine that ran before on the same platform.
        self._monitor_scheduled = False
        self.monitoring: Monitoring | None = None
        if monitoring:
            self.monitoring = Monitoring(self.runtime, names, objectives,
                                         incident_dir)
        self.runtime.monitoring = self.monitoring

        self._seq = 0                 # global admission order
        self._inflight = 0
        #: In-flight launches per hardware partition; caps each partition
        #: at its unit-proportional share of the cluster-wide in-flight
        #: budget.  Unpinned launches count under None, which has no cap.
        self._inflight_parts: dict[str | None, int] = defaultdict(int)
        self._busy_integral = 0.0     # inflight x time, for utilization
        self._last_busy_ns = 0.0
        self._last_tick_ns = 0.0
        self._tick_scheduled = False
        self._flush_at: dict[str, float] = {}
        self._ran = False
        #: Resolved once in :meth:`run`; None = tracing off (and then no
        #: utilization sampler either).
        self._tracer: obs_tracer.Tracer | None = None
        self._util: UtilizationSampler | None = None
        # the platform's counters are cumulative; report this run's delta
        self._cache_base = (
            self.platform.stats.get("exec.trace_cache_hits"),
            self.platform.stats.get("exec.trace_cache_misses"),
            self.platform.stats.get("exec.trace_cache_evictions"),
        )

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Concurrent-launch cap under the current active device set.

        Capped by the scheduler's routable count so failed devices stop
        backing in-flight slots; identical to
        ``active x inflight_per_device`` while the cluster is healthy.
        """
        usable = min(self.autoscaler.active,
                     self.runtime.scheduler.num_routable)
        return usable * self.inflight_per_device

    def _partition_capacity(self, partition: str) -> int:
        """In-flight cap for launches pinned to one hardware partition:
        the cluster-wide budget scaled by the partition's sub-core share
        (floor 1, so a tiny partition still makes progress)."""
        pmap = self.runtime.partitions
        share = pmap.share(partition)
        return max(1, round(self.capacity * share.num_units
                            / pmap.total_units))

    def _charge_busy(self, now_ns: float) -> None:
        self._busy_integral += self._inflight * (now_ns - self._last_busy_ns)
        self._last_busy_ns = now_ns

    def _record(self, kind: str, when: float, **detail) -> None:
        """Land an event in the flight recorder (monitoring on only)."""
        if self.monitoring is not None:
            self.monitoring.record(kind, when, **detail)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self) -> ServingReport:
        """Schedule all arrivals, drain the simulator, return the report."""
        if self._ran:
            raise ConfigError("a ServingEngine instance runs once")
        self._ran = True
        epoch = self.sim.now
        self._last_busy_ns = epoch
        self._last_tick_ns = epoch
        self._tracer = obs_tracer.tracer_of(self.sim)
        if self._tracer is not None:
            self._util = UtilizationSampler(self.platform.devices,
                                            start_ns=epoch)
        self.stats.start(epoch)
        for state in self.tenants.values():
            for when in state.process.initial(epoch):
                self.sim.schedule_at(
                    float(when),
                    (lambda s=state: self._arrive(s)),
                )
        self._ensure_tick()
        self.sim.run()
        report = self._finish()
        self._snapshots = {name: state.workload.result_snapshot()
                           for name, state in self.tenants.items()}
        for base in self._owned:
            self.runtime.free(base)
        return report

    def _arrive(self, state: _TenantState) -> None:
        now = self.sim.now
        spec = state.spec
        index = state.issued
        state.issued += 1
        self.stats.offered(spec.name, now)
        verdict = self.admission.admit(spec.name, now,
                                       self.queue.depth(spec.name))
        tracer = self._tracer
        root = None
        if tracer is not None:
            root = tracer.begin(
                "serve.request", now, tid=tracer.alloc_tid(0),
                tenant=spec.name, index=index, qos=spec.qos_class)
            tracer.instant("serve.admission", now, parent=root,
                           verdict=verdict)
        if verdict != ADMIT:
            if tracer is not None:
                tracer.end(root, now, outcome=verdict)
            self.stats.shed(spec.name, verdict)
            self._feedback(state, now)
            return
        slice_lo, slice_hi = state.workload.slice_of(index)
        deadline = (now + spec.slo_ns if math.isfinite(spec.slo_ns)
                    else math.inf)
        request = Request(
            tenant=spec.name, index=index, seq=self._seq, arrival_ns=now,
            qos_class=spec.qos_class, deadline_ns=deadline,
            slice_lo=slice_lo, slice_hi=slice_hi,
            batch_key=state.workload.batch_group(index),
        )
        if tracer is not None:
            request.trace_root = root
            request.trace_queue = tracer.begin("serve.queue", now,
                                               parent=root)
        self._seq += 1
        self.queue.push(request)
        self._ensure_tick()
        self._pump()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _eligible_heads(self, now: float) -> dict[str, Request]:
        """Head requests of tenants ready to dispatch (hold-aware)."""
        heads: dict[str, Request] = {}
        for tenant in self.queue.tenants():
            state = self.tenants[tenant]
            self._expire_heads(state, now)
            if not self.queue.depth(tenant):
                continue
            part = state.workload.active_partition
            if (part is not None and self._inflight_parts[part]
                    >= self._partition_capacity(part)):
                continue              # partition's in-flight share is full
            head = self.queue.peek(tenant)
            flush_at = self.batcher.should_hold(
                self.queue, tenant, state.workload.fuse, now,
                more_arrivals=state.more_arrivals,
            )
            if flush_at is not None:
                if self._tracer is not None and head.trace_hold is None:
                    head.trace_hold = self._tracer.begin(
                        "serve.batch_wait", now, parent=head.trace_queue)
                self._schedule_flush(tenant, flush_at)
                continue
            heads[tenant] = head
        return heads

    def _expire_heads(self, state: _TenantState, now: float) -> None:
        """Drop queue-head requests already past their deadline."""
        if not state.spec.drop_expired:
            return
        tenant = state.spec.name
        while (self.queue.depth(tenant)
               and self.queue.peek(tenant).deadline_ns < now):
            request = self.queue.pop(tenant)
            if self._tracer is not None:
                self._tracer.end(request.trace_hold, now)
                self._tracer.end(request.trace_queue, now)
                self._tracer.end(request.trace_root, now, outcome="expired")
            self.stats.expired(tenant)
            self._feedback(state, now)

    def _pump(self) -> None:
        now = self.sim.now
        while self._inflight < self.capacity:
            heads = self._eligible_heads(now)
            if not heads:
                break
            tenant = self.scheduler.pick(heads, now)
            state = self.tenants[tenant]
            batch = self.batcher.take(self.queue, tenant,
                                      state.workload.fuse)
            self.scheduler.charge(tenant, float(batch.size))
            self._dispatch(state, batch.requests, now)

    def _dispatch(self, state: _TenantState, requests: list[Request],
                  now: float) -> None:
        """Launch one batch; every way it can end goes through ``settle``.

        A launch is a race among its issued copies, settled by the first
        success or the last failure.  Ordinarily the race has one
        entrant.  A ``hedgeable`` workload (replicated idempotent point
        lookups) with ``hedge_delay_ns > 0`` arms a timer that enters a
        duplicate of the same plan if the primary has not finished by
        then; a failed copy defers to an outstanding sibling, and
        :meth:`_complete` runs exactly once.
        """
        spec = state.spec
        workload = state.workload
        plan = workload.plan(requests)
        launch = _Launch(state, requests, plan, workload.active_partition)
        self.stats.launched(spec.name, len(requests))
        self._record("serve.launch", now, tenant=spec.name,
                     batch=len(requests))
        self._charge_busy(now)
        self._inflight += 1
        self._inflight_parts[launch.partition] += 1
        tracer = self._tracer
        if tracer is not None:
            for request in requests:
                tracer.end(request.trace_hold, now)
                tracer.end(request.trace_queue, now)
                request.trace_inflight = tracer.begin(
                    "serve.inflight", now, parent=request.trace_root)
            # the launch subtree hangs off the batch head's request
            # on its own swim-lane (it can outlive the head's root)
            launch.span = tracer.begin(
                "serve.launch", now, tid=tracer.alloc_tid(0),
                parent=requests[0].trace_root,
                tenant=spec.name, batch=len(requests))
        pending = 0
        settled = False

        def issue(at_ns: float, hedged: bool):
            nonlocal pending
            handle = self.runtime.launch_async(
                plan.kernel_id, plan.base, plan.bound, args=plan.args,
                stride=plan.stride, at_ns=at_ns,
                on_complete=(lambda h: settle(h, hedged)),
                trace_parent=launch.span,
            )
            pending += 1
            return handle

        def settle(handle, hedged: bool) -> None:
            nonlocal pending, settled
            pending -= 1
            failed = handle.failure is not None
            if settled or (failed and pending > 0):
                return                # decided, or a sibling may still win
            settled = True
            if hedged and not failed:
                self.stats.hedged_won(spec.name)
            self._complete(launch, handle.complete_ns, handle.failure, handle)
            self._pump()

        try:
            primary = issue(now + HOST_DISPATCH_NS, False)
        except DeviceUnavailable as exc:
            # every device is DOWN: fail the batch through the retry
            # machinery rather than crashing the run loop
            self._complete(launch, now, exc, outcome="unroutable")
            return
        if spec.hedge_delay_ns <= 0 or not workload.hedgeable:
            return

        def maybe_hedge() -> None:
            if settled or primary.finished:
                return
            try:
                issue(self.sim.now, True)
            except DeviceUnavailable:
                return                # nowhere to hedge to; primary stands
            self.stats.hedged(spec.name)

        self.sim.schedule_at(now + HOST_DISPATCH_NS + spec.hedge_delay_ns,
                             maybe_hedge)

    def _lane_completions(self, handle, plan: LaunchPlan, count: int,
                          when: float) -> list[float]:
        """Per-request completion times of a batch, request order.

        Each fused lane of a scatter batch walks one staging-ring
        descriptor, so request i's completion is the finish time of the
        lane over descriptor i — reconstructed across sub-launches via
        each instance's pool base.  Every other batch — and a scatter
        batch on a backend that doesn't expose per-lane times (the
        interpreter) — completes uniformly at ``when``.
        """
        uniform = [when] * count
        if not plan.scatter:
            return uniform
        times: list[float | None] = [None] * count
        for instance in self.runtime.instances_of(handle).instances:
            lanes = instance.lane_complete_ns
            if lanes is None:
                return uniform
            first = (instance.pool_base - plan.base) // plan.stride
            if first < 0 or first + len(lanes) > count:
                return uniform
            times[first:first + len(lanes)] = lanes
        return uniform if any(t is None for t in times) else times

    def _complete(self, launch: _Launch, when: float,
                  failure: Exception | None, handle=None,
                  outcome: str = "failed") -> None:
        """The one end of a launch: give its in-flight slot back, then
        either route the batch through the retry policy (``failure``) or
        land every request's completion."""
        self._charge_busy(when)
        self._inflight -= 1
        self._inflight_parts[launch.partition] -= 1
        if failure is not None:
            self._handle_failure(launch, failure, when, outcome)
            return
        state, requests = launch.state, launch.requests
        state.workload.note_served(requests)
        done_times = self._lane_completions(handle, launch.plan,
                                            len(requests), when)
        for request, done_ns in zip(requests, done_times):
            request.complete_ns = done_ns
        tracer = self._tracer
        if tracer is not None:
            tracer.end(launch.span, when)
            for request in requests:
                tracer.end(request.trace_inflight, request.complete_ns)
                tracer.end(request.trace_root, request.complete_ns,
                           outcome="served")
        self.stats.served_batch(
            state.spec.name,
            [r.complete_ns - r.arrival_ns for r in requests],
            done_times,
            [r.complete_ns <= r.deadline_ns for r in requests],
        )
        for done_ns in done_times:
            self._feedback(state, done_ns)

    # ------------------------------------------------------------------
    # failure handling (retries + terminal accounting)
    # ------------------------------------------------------------------

    def _handle_failure(self, launch: _Launch, failure: Exception,
                        when: float, outcome: str) -> None:
        """Route a failed batch through the tenant's retry policy.

        Each request independently either re-queues after a backoff
        (budget left, and — under a deadline-aware policy — the retry
        still fires before its deadline) or terminates as ``failed``.
        Poison is never retried: the corrupted range persists, so a
        retry would deterministically hit it again.
        """
        state, requests = launch.state, launch.requests
        spec = state.spec
        policy = spec.retry
        retryable = not isinstance(failure, PoisonError)
        cause = type(failure).__name__
        tracer = self._tracer
        if tracer is not None:
            tracer.end(launch.span, when, outcome=outcome)
            for request in requests:
                tracer.end(request.trace_inflight, when)
                request.trace_inflight = None
        for request in requests:
            fire = None
            if retryable and request.attempts < policy.max_retries:
                delay = policy.delay_ns(request.attempts, state.retry_rng)
                candidate = when + delay
                if not policy.deadline_aware \
                        or candidate <= request.deadline_ns:
                    fire = candidate
            if fire is None:
                self.stats.failed(spec.name)
                self._record("serve.failed", when, tenant=spec.name,
                             index=request.index, cause=cause)
                if tracer is not None:
                    tracer.end(request.trace_root, when, outcome="failed")
                self._feedback(state, when)
                continue
            request.attempts += 1
            self.stats.retried(spec.name)
            self._record("serve.retry", when, tenant=spec.name,
                         index=request.index, attempt=request.attempts,
                         cause=cause)
            if tracer is not None:
                tracer.instant(
                    "serve.retry", when, parent=request.trace_root,
                    attempt=request.attempts, cause=cause)
            self.sim.schedule_at(fire,
                                 (lambda r=request: self._requeue(r)))
        if self.monitoring is not None:
            self.monitoring.launch_failed(failure, when, tenant=spec.name,
                                          requests=len(requests))

    def _requeue(self, request: Request) -> None:
        """Put a retried request back in its tenant's queue (EDF keeps
        its original absolute deadline, so it sorts ahead of newer work)."""
        request.trace_hold = None
        if self._tracer is not None:
            request.trace_queue = self._tracer.begin(
                "serve.queue", self.sim.now, parent=request.trace_root,
                attempt=request.attempts)
        self.queue.push(request)
        self._ensure_tick()
        self._pump()

    def _feedback(self, state: _TenantState, when: float) -> None:
        """Terminal outcome feedback: closed loops issue their next request."""
        next_arrival = state.process.on_completion(when)
        if next_arrival is not None:
            self.sim.schedule_at(
                max(float(next_arrival), self.sim.now),
                (lambda s=state: self._arrive(s)),
            )

    # ------------------------------------------------------------------
    # timers (batch flush + the two heartbeats: autoscale / stats windows
    # and the read-only monitor, which cannot change workload results)
    # ------------------------------------------------------------------

    def _schedule_flush(self, tenant: str, flush_at: float) -> None:
        if self._flush_at.get(tenant) == flush_at:
            return
        self._flush_at[tenant] = flush_at

        def flush() -> None:
            if self._flush_at.get(tenant) == flush_at:
                del self._flush_at[tenant]
            self._pump()

        self.sim.schedule_at(flush_at, flush)

    def _ensure_tick(self) -> None:
        """Arm whichever heartbeat is not already scheduled."""
        if self.monitoring is not None and not self._monitor_scheduled:
            self._monitor_scheduled = True
            self.sim.schedule(DEFAULT_MONITOR_INTERVAL_NS,
                              self._monitor_beat)
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self.sim.schedule(self._tick_interval, self._tick)

    def _rearm(self) -> None:
        """Keep the heartbeats going exactly while work remains (queued,
        in flight or still to arrive); then the chains lapse so the run
        drains on schedule, and the next arrival or retry re-arms them."""
        if self.queue.total or self._inflight or any(
                s.more_arrivals for s in self.tenants.values()):
            self._ensure_tick()

    def _mark_windows(self, now: float) -> None:
        self.stats.mark_window(now)
        if self._util is not None:
            self._util.mark(now)

    def _tick(self) -> None:
        now = self.sim.now
        self._charge_busy(now)
        # utilization over the *actual* span since the last tick — the
        # chain lapses while the system idles, and a restarted tick must
        # average the idle gap in, not assume one nominal interval
        span = now - self._last_tick_ns
        self._last_tick_ns = now
        utilization = (self._busy_integral / (self.capacity * span)
                       if self.capacity and span > 0 else 0.0)
        self._busy_integral = 0.0
        self.autoscaler.observe(now, min(utilization, 1.0))
        self._mark_windows(now)
        self._tick_scheduled = False
        self._rearm()
        self._pump()

    def _monitor_beat(self) -> None:
        self._monitor_scheduled = False
        self.monitoring.beat(self.sim.now)
        self._rearm()

    # ------------------------------------------------------------------
    # wrap-up
    # ------------------------------------------------------------------

    def _finish(self) -> ServingReport:
        now = self.sim.now
        if self.queue.total or self._inflight:
            raise ConfigError(
                "serving run drained with work still queued or in flight"
            )
        self._mark_windows(now)
        if self.monitoring is not None:
            # close the monitor's final window so tail outcomes (the
            # last completions, a detection on the run's final beat)
            # still alert before the report is built
            self.monitoring.beat(now)
        cluster_stats = self.platform.stats
        for name, state in self.tenants.items():
            self.stats.reports[name].correct = state.workload.verify()
        span = max(
            self.stats.last_completion_ns - self.stats.first_arrival_ns, 0.0
        ) if self.stats.aggregate.count else 0.0
        return ServingReport(
            tenants=list(self.stats.reports.values()),
            span_ns=span,
            aggregate=self.stats.aggregate,
            timeline=self.stats.timeline,
            active_device_series=self.autoscaler.series.points,
            scale_ups=self.autoscaler.scale_ups,
            scale_downs=self.autoscaler.scale_downs,
            trace_cache_hits=(cluster_stats.get("exec.trace_cache_hits")
                              - self._cache_base[0]),
            trace_cache_misses=(cluster_stats.get("exec.trace_cache_misses")
                                - self._cache_base[1]),
            trace_cache_evictions=(
                cluster_stats.get("exec.trace_cache_evictions")
                - self._cache_base[2]),
        )

    # ------------------------------------------------------------------

    def result_snapshots(self) -> dict[str, bytes]:
        """Per-tenant result-region bytes (cross-run identity checks), as
        :meth:`run` read them before it gave the tenants' memory back."""
        if not self._ran:
            raise ConfigError("result snapshots exist once the engine ran")
        return dict(self._snapshots)
