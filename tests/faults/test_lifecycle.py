"""One case per fault lifecycle row: inject the fault into a small
monitored cluster and check what each stage is called — the detection
ring kind, the monitor's alert and severity, and ``correlate``'s
recovered time and MTTR.  Also: every module that reads the table
imports first in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster import make_cluster_platform
from repro.faults import DEFAULT_HEARTBEAT_NS, FaultEvent, FaultPlan
from repro.faults.plan import LIFECYCLE
from repro.obs.incidents import correlate
from repro.obs.monitor import Monitoring

AT = 1_000.0
WINDOW = 4_000.0
DEVICE = 1

#: (kind, partition, detection ring kind, detected at, alert, severity,
#:  recovered at, mttr) — times relative to the injector's epoch; a
#:  recovered time of "recopy" is the re-copy's completion.
CASES = [
    ("device_fail", None, "fault.detect", DEFAULT_HEARTBEAT_NS,
     "device_down", "page", "recopy", "recopy"),
    ("device_fail", "batch", "fault.partition_detect", DEFAULT_HEARTBEAT_NS,
     "partition_down", "page", DEFAULT_HEARTBEAT_NS, 0.0),
    ("device_stall", None, "fault.stall", AT,
     "device_degraded", "ticket", AT + WINDOW, WINDOW),
    ("device_stall", "batch", "fault.partition_stall", AT,
     "partition_degraded", "ticket", AT + WINDOW, WINDOW),
    ("link_flap", None, "fault.link_flap", AT,
     "device_degraded", "ticket", AT + WINDOW, WINDOW),
    ("poison", None, "fault.poison", AT, "poison", "page", None, None),
    ("poison", "batch", "fault.poison", AT, "poison", "page", None, None),
]


def test_every_lifecycle_row_has_a_case():
    assert sorted((kind, "device" if part is None else "partition")
                  for kind, part, *_ in CASES) == sorted(LIFECYCLE)


@pytest.mark.parametrize(
    "kind, partition, detect, detected, alert, severity, recovered, mttr",
    CASES, ids=[f"{c[0]}-{c[1] or 'device'}" for c in CASES])
def test_lifecycle_row(kind, partition, detect, detected, alert, severity,
                       recovered, mttr):
    platform = make_cluster_platform(num_devices=2, backend="batched",
                                     partitions="rt:1,batch:2,spare:1")
    runtime = platform.runtime
    runtime.monitoring = Monitoring(runtime, [])
    data = np.arange(4096, dtype=np.int64)
    # replicated shards fail over in place, then blocked ones are
    # re-copied off a dead device (MTTR runs to the last); batch-pinned
    # ones move to the spare partition
    runtime.alloc_array(data, placement="replicated")
    runtime.alloc_array(data, placement="blocked", partition="batch")
    injector = runtime.arm_faults(FaultPlan(events=(FaultEvent(
        kind, at_ns=AT, device=DEVICE, partition=partition,
        duration_ns=WINDOW if kind in ("device_stall", "link_flap") else 0.0,
        base=0 if kind != "poison" else runtime.allocator.maps[0].base,
        size=64 if kind == "poison" else 0),)))
    runtime.sim.run()
    epoch = injector.epoch_ns
    ring = runtime.monitoring.recorder.snapshot()

    found = [row for row in ring if row["kind"] == detect]
    assert [(row["t_ns"], row["device"]) for row in found] == [
        (epoch + detected, DEVICE)]
    assert found[0].get("detail", {}).get("partition") == partition

    monitor = runtime.monitoring.monitor
    now = runtime.sim.now
    assert [(a.kind, a.severity, a.device, a.value)
            for a in monitor.evaluate(now)] == [
        (alert, severity, DEVICE, epoch + detected)]

    row, = correlate(injector, ring, monitor.alerts)
    assert (row["detected_ns"], row["alerted_ns"]) == (epoch + detected, now)
    if recovered == "recopy":
        done = [r["detail"]["done_ns"] for r in ring
                if r["kind"] == "recovery.remap"]
        assert len(done) == 1 and done[0] > epoch + detected
        recovered, mttr = done[0] - epoch, done[0] - epoch - detected
    expected = None if recovered is None else epoch + recovered
    assert (row["recovered_ns"], row["mttr_ns"]) == (expected, mttr)


@pytest.mark.parametrize("module", [
    "repro.obs", "repro.faults", "repro.obs.incidents", "repro.serve"])
def test_imports_first_in_a_fresh_interpreter(module):
    """``obs.monitor`` reads the table from ``faults.plan`` while
    ``faults.injector`` imports ``obs.tracer``: any of the four may be
    the first import."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
