"""Multi-expander cluster subsystem (§III-I / Fig 12b made executable).

Wires N :class:`~repro.ndp.device.M2NDPDevice` expanders behind one
:class:`~repro.cxl.switch.CXLSwitch` on a shared simulator:

- :mod:`repro.cluster.placement` — sharded HDM allocation (interleaved /
  blocked / replicated) with per-allocation ownership maps;
- :mod:`repro.cluster.scheduler` — fan-out launch scheduling (round-robin,
  locality, least-outstanding) splitting logical launches into per-device
  sub-launches;
- :mod:`repro.cluster.runtime` — the :class:`ClusterRuntime` facade
  mirroring ``M2NDPRuntime`` so workloads run unmodified on 1..N devices;
- :mod:`repro.cluster.partitions` — the per-device hardware partition map
  (always >= 1 partition; unset = the one-partition map).

Request traffic against a cluster is driven by :mod:`repro.serve`, which
is built on this package (never the other way round).
"""

from repro.cluster.placement import (
    PLACEMENTS,
    ClusterAllocator,
    ShardMap,
    auto_shard_bytes,
)
from repro.cluster.runtime import (
    ClusterInstance,
    ClusterLaunchHandle,
    ClusterPlatform,
    ClusterRuntime,
    make_cluster_platform,
)
from repro.cluster.scheduler import (
    MAX_SUBLAUNCHES,
    SCHEDULERS,
    LaunchScheduler,
    SubLaunch,
)

__all__ = [
    "PLACEMENTS",
    "SCHEDULERS",
    "MAX_SUBLAUNCHES",
    "ClusterAllocator",
    "ClusterInstance",
    "ClusterLaunchHandle",
    "ClusterPlatform",
    "ClusterRuntime",
    "LaunchScheduler",
    "ShardMap",
    "SubLaunch",
    "auto_shard_bytes",
    "make_cluster_platform",
]
