"""Observability: span tracing, trace export, utilization timelines.

The telemetry seam for the whole stack (see ``repro.obs.tracer`` for the
model).  Off by default — set ``REPRO_TRACE=1`` (or call
:func:`set_enabled`) before building a platform, run, then export::

    from repro import obs

    obs.set_enabled(True)
    report = engine.run()
    obs.write_trace(obs.tracer_of(platform.sim), "run.trace.json")
    obs.write_manifest("run.manifest.json",
                       tracer=obs.tracer_of(platform.sim),
                       stats=platform.stats)

Then ``python -m repro.obs.report run.trace.json`` for the bottleneck
breakdown, or load the trace in https://ui.perfetto.dev.

Always-on monitoring lives beside tracing as one
:class:`~repro.obs.monitor.Monitoring` object: ``repro.obs.monitor``
(SLO burn-rate alerting), ``repro.obs.recorder`` (flight-recorder ring)
and ``repro.obs.incidents`` (incident bundles; also the
``python -m repro.obs.incidents`` renderer — imported directly, not
re-exported here, so running it as a module stays warning-free).
"""

from repro.obs.export import (
    run_manifest,
    to_chrome_trace,
    write_manifest,
    write_trace,
)
from repro.obs.monitor import (
    Alert,
    Monitoring,
    SLOMonitor,
)
from repro.obs.recorder import EventRecord, FlightRecorder
from repro.obs.timeline import UtilizationSampler
from repro.obs.tracer import (
    HOST_PID,
    Span,
    Tracer,
    enabled,
    set_enabled,
    tracer_of,
)

__all__ = [
    "Alert",
    "EventRecord",
    "FlightRecorder",
    "HOST_PID",
    "Monitoring",
    "SLOMonitor",
    "Span",
    "Tracer",
    "UtilizationSampler",
    "enabled",
    "run_manifest",
    "set_enabled",
    "to_chrome_trace",
    "tracer_of",
    "write_manifest",
    "write_trace",
]
