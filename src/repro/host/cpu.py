"""Host CPU baseline and CPU-NDP models.

The paper's CPU numbers are shaped by three quantities this model makes
explicit (substituting for ZSim, see DESIGN.md):

* per-core memory-level parallelism (MLP): an OoO core sustains ~10
  outstanding line misses, so its streaming bandwidth against a memory with
  load-to-use latency L is ``mlp * line / L``;
* the CXL link bandwidth ceiling (64 GB/s per direction) shared by all
  cores when data lives in passive CXL memory;
* serialized *dependent* accesses (pointer chasing — KVStore hash buckets)
  that pay full load-to-use latency each.

Two interfaces:

* analytic :meth:`scan_bandwidth` / :meth:`scan_time_ns` for streaming
  scans (OLAP Evaluate), including the single-thread case that dominates
  the paper's baseline Evaluate phase;
* :class:`CoreRequestPool`, a discrete-event pool of cores serving
  latency-bound requests (KVStore), from which P95 latencies emerge.

``CPU-NDP`` is the same model with cores placed inside the CXL device:
internal DRAM latency, no link in the path (§IV-A).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.config import CPUConfig, CXLConfig
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
    def cxl(cls, config: CXLConfig | None = None) -> "MemoryTarget":
        cfg = config if config is not None else CXLConfig()
        return cls("cxl", cfg.load_to_use_ns, cfg.bw_per_dir_bytes_per_ns)

    @classmethod
    def device_internal(cls, bandwidth: float = 409.6,
                        latency_ns: float = 60.0) -> "MemoryTarget":
        """Seen by CPU-NDP cores inside the CXL memory expander."""
        return cls("internal", latency_ns, bandwidth)


class HostCPUModel:
    """Analytic multicore streaming model."""

    def __init__(self, config: CPUConfig | None = None) -> None:
        self.config = config if config is not None else CPUConfig()

    def core_stream_bandwidth(self, memory: MemoryTarget) -> float:
        """One core's streaming bandwidth (bytes/ns), MLP-limited."""
        return self.config.mlp_per_core * CACHELINE / memory.load_to_use_ns

    def scan_bandwidth(self, memory: MemoryTarget,
                       threads: int | None = None) -> float:
        """Aggregate streaming bandwidth with ``threads`` cores (default all)."""
        n = self.config.num_cores if threads is None else threads
        n = min(n, self.config.num_cores)
        return min(n * self.core_stream_bandwidth(memory),
                   memory.bandwidth_bytes_per_ns)

    def scan_time_ns(self, total_bytes: int, memory: MemoryTarget,
                     threads: int | None = None,
                     compute_ns_per_byte: float = 0.0) -> float:
        """Time to stream ``total_bytes`` applying light per-byte compute."""
        bw = self.scan_bandwidth(memory, threads)
        n = min(threads or self.config.num_cores, self.config.num_cores)
        compute = total_bytes * compute_ns_per_byte / max(n, 1)
        return max(total_bytes / bw, compute)

    def pointer_chase_ns(self, depth: int, memory: MemoryTarget,
                         compute_ns: float = 0.0) -> float:
        """Serialized dependent accesses (hash-bucket walks)."""
        return depth * memory.load_to_use_ns + compute_ns


class CoreRequestPool:
    """Discrete-event pool of cores serving fixed-service-time requests.

    Requests queue FCFS for the first free core; P95 latency under load
    emerges from queueing.  Used for the KVStore host baseline and the
    host-side hash stage in the NDP configurations.
    """

    def __init__(self, sim: Simulator, num_cores: int) -> None:
        self.sim = sim
        self.num_cores = num_cores
        self._core_free_ns = [0.0] * num_cores
        self._heap = list(self._core_free_ns)
        heapq.heapify(self._heap)
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
