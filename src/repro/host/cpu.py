"""Host CPU baseline and CPU-NDP models.

The paper's CPU numbers are shaped by three quantities this model makes
explicit, in place of the paper's ZSim runs:

* per-core memory-level parallelism (MLP): an OoO core sustains ~10
  outstanding line misses, so its streaming bandwidth against a memory with
  load-to-use latency L is ``mlp * line / L``;
* the CXL link bandwidth ceiling (64 GB/s per direction) shared by all
  cores when data lives in passive CXL memory;
* serialized *dependent* accesses (pointer chasing — KVStore hash buckets)
  that pay full load-to-use latency each.

Two interfaces:

* analytic :meth:`scan_bandwidth` for streaming
  scans (OLAP Evaluate), including the single-thread case that dominates
  the paper's baseline Evaluate phase;
* :class:`CoreRequestPool`, a discrete-event pool of cores serving
  latency-bound requests (KVStore), from which P95 latencies emerge.

``CPU-NDP`` is the same model with cores placed inside the CXL device:
internal DRAM latency, no link in the path (§IV-A).  Both read their
numbers from their ``config.COMPARATORS`` rows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.config import COMPARATORS, default_system
from repro.sim.engine import Simulator
from repro.sim.stats import Distribution

CACHELINE = 64


@dataclass(frozen=True)
class MemoryTarget:
    """Where the data lives, from the cores' point of view."""

    name: str
    load_to_use_ns: float
    bandwidth_bytes_per_ns: float     # ceiling (link or DRAM)

    @classmethod
    def device_internal(cls) -> "MemoryTarget":
        """Seen by CPU-NDP cores inside the CXL memory expander."""
        return cls("internal", COMPARATORS["cpu_ndp"]["load_to_use_ns"],
                   default_system().cxl_dram.total_bw_bytes_per_ns)


class HostCPUModel:
    """Analytic multicore streaming model of the ``COMPARATORS`` row
    ``name`` (``"cpu"`` or ``"cpu_ndp"``)."""

    def __init__(self, name: str = "cpu") -> None:
        self.row = COMPARATORS[name]

    def core_stream_bandwidth(self, memory: MemoryTarget) -> float:
        """One core's streaming bandwidth (bytes/ns), MLP-limited."""
        return self.row["mlp"] * CACHELINE / memory.load_to_use_ns

    def scan_bandwidth(self, memory: MemoryTarget,
                       threads: int | None = None) -> float:
        """Aggregate streaming bandwidth with ``threads`` cores (default all)."""
        n = self.row["cores"] if threads is None else threads
        n = min(n, self.row["cores"])
        return min(n * self.core_stream_bandwidth(memory),
                   memory.bandwidth_bytes_per_ns)

    def pointer_chase_ns(self, depth: int, memory: MemoryTarget,
                         compute_ns: float = 0.0) -> float:
        """Serialized dependent accesses (hash-bucket walks)."""
        return depth * memory.load_to_use_ns + compute_ns


class CoreRequestPool:
    """Discrete-event pool of cores serving fixed-service-time requests.

    Requests queue FCFS for the first free core; P95 latency under load
    emerges from queueing.  ``_heap`` holds each core's free time.  Used
    for the KVStore host baseline and the host-side hash stage in the NDP
    configurations, both on the ``cpu`` row's cores.
    """

    def __init__(self, sim: Simulator, num_cores: int) -> None:
        self.sim = sim
        self.num_cores = num_cores
        self._heap = [0.0] * num_cores
        self.latencies = Distribution()

    def submit(self, arrival_ns: float, service_ns: float,
               callback: Callable[[float], None] | None = None) -> float:
        """Serve a request; returns (and optionally schedules) completion."""
        free = heapq.heappop(self._heap)
        start = max(arrival_ns, free)
        done = start + service_ns
        heapq.heappush(self._heap, done)
        self.latencies.add(done - arrival_ns)
        if callback is not None:
            self.sim.schedule_at(done, lambda: callback(done))
        return done
