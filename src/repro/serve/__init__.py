"""SLO-aware multi-tenant serving subsystem over the M2NDP cluster.

The ROADMAP's "heavy traffic from millions of users" scenario made
executable: a production-style serving frontend on top of
:class:`~repro.cluster.ClusterRuntime`, with

- :mod:`repro.serve.arrivals` — arrival processes (Poisson, bursty MMPP,
  diurnal, closed-loop with think time, trace replay) seeded bit-for-bit
  reproducibly from ``ClusterConfig.seed``;
- :mod:`repro.serve.qos` — per-tenant request queues and the
  weighted-fair / FIFO dispatch scheduler with latency-class priority,
  deadline-aware ordering and batch-class starvation protection;
- :mod:`repro.serve.admission` — token-bucket rate limits and
  queue-depth shedding with full shed accounting;
- :mod:`repro.serve.tenant` — tenant contracts and the table of tenant
  kinds (slice sweep: ``vecadd`` / ``olap``; point store: ``kvstore``),
  each naming the one ``fuse`` mode its requests batch under;
- :mod:`repro.serve.batcher` — dynamic max-batch/max-wait coalescing of
  queue-head runs into single cluster launches, one rule per ``fuse``
  mode (maximizing trace-cache hits);
- :mod:`repro.serve.autoscaler` — utilization-targeted growth/shrink of
  the active device set;
- :mod:`repro.serve.stats` — per-tenant p50/p95/p99, SLO attainment,
  goodput and shed counters in the shared :class:`StatsRegistry`;
- :mod:`repro.serve.engine` — the :class:`ServingEngine` event loop
  tying it all together on the cluster's simulator.
"""

from repro.serve.admission import (
    ADMIT,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMIT,
    AdmissionController,
    TokenBucket,
)
from repro.serve.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    ArrivalSpec,
    BurstyArrivals,
    ClosedLoopArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
    make_arrival_process,
    stream_rng,
)
from repro.serve.autoscaler import AutoscalePolicy, Autoscaler
from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.engine import (
    HOST_DISPATCH_NS,
    ServingEngine,
    serve,
)
from repro.serve.qos import (
    QOS_CLASSES,
    SERVE_SCHEDULERS,
    QoSScheduler,
    Request,
    RequestQueue,
    validate_serve_scheduler,
)
from repro.serve.resilience import RetryPolicy
from repro.serve.stats import ServingReport, ServingStats, TenantReport
from repro.serve.tenant import (
    SERVE_KINDS,
    LaunchPlan,
    TenantSpec,
    TenantWorkload,
)

__all__ = [
    "ADMIT",
    "ARRIVAL_PROCESSES",
    "AdmissionController",
    "ArrivalProcess",
    "ArrivalSpec",
    "AutoscalePolicy",
    "Autoscaler",
    "Batch",
    "BatchPolicy",
    "BurstyArrivals",
    "ClosedLoopArrivals",
    "DiurnalArrivals",
    "DynamicBatcher",
    "HOST_DISPATCH_NS",
    "LaunchPlan",
    "PoissonArrivals",
    "QOS_CLASSES",
    "QoSScheduler",
    "Request",
    "RequestQueue",
    "RetryPolicy",
    "SERVE_KINDS",
    "SERVE_SCHEDULERS",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMIT",
    "ServingEngine",
    "ServingReport",
    "ServingStats",
    "TenantReport",
    "TenantSpec",
    "TenantWorkload",
    "TokenBucket",
    "TraceArrivals",
    "make_arrival_process",
    "serve",
    "stream_rng",
    "validate_serve_scheduler",
]
