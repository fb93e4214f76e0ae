"""Pluggable µthread execution backends.

The device models in :mod:`repro.ndp` describe *what* the M2NDP hardware
is — units, sub-cores, caches, the DRAM system.  This package decides *how*
a kernel launch is executed against those models.  Two backends implement
the common :class:`~repro.exec.base.ExecutionBackend` interface:

``interpreter``
    The reference path: every instruction of every µthread is functionally
    executed and individually charged to the sub-core issue servers, TLBs,
    caches and DRAM banks.  Cycle-level FGMT behaviour (context occupancy,
    spawn granularity, atomics interleaving) is bit-exact; cost is
    O(µthreads x instructions) Python work per launch.

``batched``
    The trace-once/replay-many fast path for bulk-synchronous launches
    whose µthreads are structurally identical (the common case for the
    paper's kernels: every body µthread runs the same code over a different
    pool slice).  All µthreads execute *functionally* in one
    numpy-vectorized walk (registers become arrays over the launch) that
    records the dynamic trace, and *timing* is replayed analytically: the
    trace's per-FU instruction counts bound issue throughput, and the
    launch's sector-unique address stream is fed through the existing
    memory-side L2 / banked-DRAM virtual-time models.  Results in memory
    are identical to the interpreter's; launch runtime is a
    throughput/latency roofline rather than an event-by-event schedule.

Backend selection
-----------------

* ``NDPConfig.backend`` (default ``"interpreter"``) picks the device-wide
  default; the ``REPRO_EXEC_BACKEND`` knob (:mod:`repro.knobs`, README
  "Knobs") overrides it, and an explicit ``backend=`` argument to
  :func:`repro.workloads.base.make_platform` or ``M2NDPDevice`` always
  wins (experiments pinned to the interpreter must not be overridden from
  the environment).
* Experiments default to ``batched`` via
  ``repro.experiments.common.EXPERIMENT_BACKEND``; since the SIMT engine
  the microarchitectural studies (Fig 6 context occupancy, Fig 12a spawn
  granularity ablation) run unpinned on it as well.
* Inside the batched backend, launches route by *shape* alone — no
  environment variable reroutes a shape to a different engine: bulk
  branch-uniform launches take the launch-uniform trace/replay walk;
  initializer/finalizer phases, atomics (AMO/VAMO), indexed
  gathers/scatters, scratchpad state, µthread-divergent branches and
  sub-threshold launch sizes run on the masked **SIMT engine**
  (:mod:`repro.exec.simt`: active-mask stack with post-dominator
  reconvergence, lane-ordered grouped AMOs, per-unit scratchpad shadows),
  and single-body launches no wider than the device on the **point
  engine** (:mod:`repro.exec.point`).  Both vectorized walks execute
  instructions — loads and stores included — through
  :class:`repro.isa.vectorops.LaneISA` and record, verify and profile
  their memory steps through one :class:`~repro.exec.trace_cache.StepLog`.
  Only translation faults, read-after-write races through memory,
  order-sensitive atomic contention and unsupported instructions still
  fall back to the interpreter — counted in ``exec.batched_fallbacks``
  and attributed in ``exec.fallback_reason.<class>``; engine launches
  land in ``exec.batched_launches`` / ``exec.simt_launches``.
* Repeated launches of the same shape skip tracing entirely through the
  cross-launch :mod:`~repro.exec.trace_cache` (``exec.trace_cache_hits`` /
  ``exec.trace_cache_misses``; the ``REPRO_TRACE_CACHE`` knob) —
  including divergent/atomic SIMT traces, which are verified against
  their recorded mask schedule on every replay.
"""

from repro.exec.base import ExecutionBackend, make_backend
from repro.exec.interpreter import InterpreterBackend
from repro.exec.batched import BatchedBackend
from repro.exec.simt import LaunchFallback, SimtPlan
from repro.exec.trace_cache import (
    TraceCache,
    TraceEntry,
    trace_key,
)

__all__ = [
    "ExecutionBackend",
    "InterpreterBackend",
    "BatchedBackend",
    "LaunchFallback",
    "SimtPlan",
    "TraceCache",
    "TraceEntry",
    "make_backend",
    "trace_key",
]
