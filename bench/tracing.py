"""Host-time span tracer installed *around* public ``repro`` functions.

Imported by the traced subprocess only; the timed subprocess never loads
this module, so end-to-end numbers are measured with tracing off and the
difference between the two is the tracing overhead
(``bench.trace_overhead_ratio``).

A span is ``[name, layer, start, end, parent, launch_id]``.  Spans nest
strictly (one thread), stay in memory and are written when the pass
ends.  A layer's self time is its spans' durations minus the time their
child spans cover, so the layers sum to the root.  ``launch_id`` is the
index of the enclosing ``ClusterRuntime.launch_async`` (or, on a single
device, ``M2NDPRuntime.launch_async``) call; events scheduled while a
launch is being issued inherit its id, so a launch's completion chain
shares the identifier of the call that caused it.

Event callbacks run inside ``Simulator.step``; each is attributed to the
``repro`` package its callback was defined in, which leaves
``Simulator.run`` / ``step`` self time as heap + dispatch only.  Scalar
``SectorCache.access`` / ``DRAMModel.access`` are entered > 100 k times
per pass on interpreter fallbacks: they are counted, not spanned.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

NAME, LAYER, START, END, PARENT, LAUNCH = range(6)

#: Packages whose event callbacks get a layer of their own; ``mem``
#: callbacks (none today) would land in the charge path's layer.
_CALLBACK_LAYERS = {
    "serve": "serve", "sim": "sim", "cluster": "cluster", "host": "host",
    "ndp": "ndp", "exec": "exec", "cxl": "cxl", "isa": "isa", "obs": "obs",
    "mem": "mem.charge", "workloads": "workloads",
}
OTHER = "other"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._launch_id = -1
        self._launches = 0
        self._in_cluster_launch = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _spanned(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, layer, 0.0, 0.0,
                      stack[-1] if stack else -1, self._launch_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _launch(self, fn, cluster: bool):
        """Open a new launch id for the dynamic extent of ``fn``; a device
        launch issued by a cluster launch keeps the cluster launch's id."""

        def wrapper(*args, **kwargs):
            if not cluster and self._in_cluster_launch:
                return fn(*args, **kwargs)
            previous = self._launch_id
            self._launch_id = self._launches
            self._launches += 1
            self._in_cluster_launch += cluster
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_cluster_launch -= cluster
                self._launch_id = previous

        wrapper.__wrapped__ = fn
        return wrapper

    def _scheduling(self, fn):
        """Wrap ``Simulator.schedule`` / ``schedule_at``: the callback is
        replaced by one that records a span in its own package's layer
        and restores the launch id it was scheduled under."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(sim, when, callback):
            # a functools.partial carries its module on the wrapped func
            target = getattr(callback, "func", callback)
            module = getattr(target, "__module__", None) or ""
            parts = module.split(".")
            layer = (_CALLBACK_LAYERS.get(parts[1], OTHER)
                     if len(parts) > 1 and parts[0] == "repro" else OTHER)
            name = "event:" + layer
            launch_id = self._launch_id

            def fire():
                previous = self._launch_id
                self._launch_id = launch_id
                record = [name, layer, 0.0, 0.0,
                          stack[-1] if stack else -1, launch_id]
                stack.append(len(spans))
                spans.append(record)
                record[START] = clock()
                try:
                    return callback()
                finally:
                    record[END] = clock()
                    stack.pop()
                    self._launch_id = previous

            return fn(sim, when, fire)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around the bench's own code (the pass root)."""
        record = [name, layer, 0.0, 0.0,
                  self._stack[-1] if self._stack else -1, self._launch_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        replacement = make(original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)
        if not isinstance(owner, type):
            # ``from module import fn`` bound the original elsewhere
            for module in list(sys.modules.values()):
                if (module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attr) is original):
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def spanned(self, owner, attr: str, layer: str) -> None:
        label = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"
        self._patch(owner, attr, lambda fn: self._spanned(fn, label, layer))

    def counted(self, owner, attr: str) -> None:
        label = f"{owner.__name__}.{attr}"
        self._patch(owner, attr, lambda fn: self._counted(fn, label))

    def install(self) -> None:
        """Wrap the layer boundaries listed in ``README.md``."""
        from repro.cluster.runtime import ClusterRuntime
        from repro.cluster.scheduler import LaunchScheduler
        from repro.cxl.switch import CXLSwitch
        from repro.exec.batched import BatchedBackend
        from repro.exec.interpreter import InterpreterBackend
        from repro.exec.trace_cache import TraceCache
        from repro.host.api import M2NDPRuntime
        from repro.isa import assembler
        from repro.mem.cache import SectorCache
        from repro.mem.dram import DRAMModel
        from repro.mem.physical import PhysicalMemory
        from repro.ndp.device import M2NDPDevice
        from repro.obs.monitor import SLOMonitor
        from repro.serve.engine import ServingEngine
        from repro.serve.tenant import TenantWorkload
        from repro.sim.engine import Simulator
        from repro.workloads import base, dlrm, graph, histogram, olap, spmv

        for owner, attr, layer in (
            (ServingEngine, "__init__", "serve"),
            (ServingEngine, "run", "serve"),
            (TenantWorkload, "plan", "serve"),
            (Simulator, "run", "sim"),
            (Simulator, "step", "sim"),
            (ClusterRuntime, "launch_async", "cluster"),
            (LaunchScheduler, "plan", "cluster"),
            (M2NDPRuntime, "launch_async", "host"),
            (M2NDPRuntime, "call_async", "host"),
            (M2NDPDevice, "host_write", "ndp"),
            (M2NDPDevice, "register_execution", "ndp"),
            (InterpreterBackend, "register_execution", "exec"),
            (BatchedBackend, "register_execution", "exec"),
            (TraceCache, "lookup", "exec.trace_cache"),
            (TraceCache, "store", "exec.trace_cache"),
            (TraceCache, "lookup_point", "exec.trace_cache"),
            (TraceCache, "store_point", "exec.trace_cache"),
            (M2NDPDevice, "l2_dram_access_batch", "mem.charge"),
            (SectorCache, "access_batch", "mem.cache"),
            (DRAMModel, "access_batch", "mem.dram"),
            (PhysicalMemory, "gather_rows", "mem.physical"),
            (PhysicalMemory, "scatter_rows", "mem.physical"),
            (CXLSwitch, "host_to_device", "cxl"),
            (CXLSwitch, "peer_to_peer", "cxl"),
            (assembler, "assemble_kernel", "isa"),
            (SLOMonitor, "evaluate", "obs"),
            (base, "make_platform", "workloads"),
            (olap, "run_ndp_evaluate", "workloads"),
            (histogram, "run_ndp", "workloads"),
            (spmv, "run_ndp", "workloads"),
            (graph, "run_ndp_pagerank", "workloads"),
            (graph, "run_ndp_sssp", "workloads"),
            (dlrm, "run_ndp", "workloads"),
        ):
            self.spanned(owner, attr, layer)
        # launch roots go on last, outside the span wrapper, so the
        # launch's own span already carries the id it opens
        self._patch(ClusterRuntime, "launch_async",
                    lambda fn: self._launch(fn, cluster=True))
        self._patch(M2NDPRuntime, "launch_async",
                    lambda fn: self._launch(fn, cluster=False))
        self.counted(SectorCache, "access")
        self.counted(DRAMModel, "access")
        self._patch(Simulator, "schedule", self._scheduling)
        self._patch(Simulator, "schedule_at", self._scheduling)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` over all spans."""
        layers: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = layers.setdefault(span[LAYER], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            # event spans are dispatches of the layer's own callbacks, not
            # calls into a wrapped boundary
            entry["calls"] += not span[NAME].startswith("event:")
        return layers

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name)

    def calls_prefixed(self, prefix: str) -> int:
        return sum(1 for span in self.spans if span[NAME].startswith(prefix))

    def write(self, path: str) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump({
                "columns": ["name", "layer", "start_s", "end_s", "parent",
                            "launch_id"],
                "spans": [[s[NAME], s[LAYER], s[START] - origin,
                           s[END] - origin, s[PARENT], s[LAUNCH]]
                          for s in self.spans],
                "counts": self.counts,
            }, handle)
