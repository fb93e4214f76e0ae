"""Utilization timelines: windowed resource sampling for traced runs.

Builds on the existing :class:`~repro.sim.stats.Timeline` machinery (one
counter-delta snapshot per window) plus the per-unit occupancy points
the backends record from the bulk charge paths, which an attached
:class:`~repro.ndp.occupancy.OccupancySeries` keeps — recording a
window costs one dict snapshot per device, and keeping the points 16 B
a point, both paid only while tracing.

Per device and window the sampler derives:

* ``subcore.occupancy`` — time-weighted mean of the units' µthread-slot
  occupancy (the backends record it at launch start/finish; a window
  reads it from the points, as a launch may record a phase start past
  the window's end);
* ``l2.hit_rate`` — read+write hits over accesses, from the ``l2.*``
  counter deltas;
* ``dram.busy`` — fraction of peak internal-DRAM bandwidth moved
  (``cxl_dram.bytes`` delta against the device's peak bytes/ns);
* ``link.gbps`` — CXL link traffic (``cxl.up_bytes + cxl.down_bytes``)
  as an absolute rate.

``counter_samples()`` renders the series as Chrome ``C`` counter events
(one per window end) for :func:`repro.obs.export.to_chrome_trace`;
``summary()`` produces the per-device means embedded in run manifests.
"""

from __future__ import annotations

from repro.ndp.occupancy import OccupancySeries
from repro.sim.stats import Timeline


class UtilizationSampler:
    """Windowed device-resource series for one platform.

    ``devices`` is any iterable of :class:`~repro.ndp.device.M2NDPDevice`
    (a single-device platform passes ``[platform.device]``); build it
    before the launches it windows, as it attaches each device's
    :class:`~repro.ndp.occupancy.OccupancySeries` (:meth:`detach` ends
    that).  Call :meth:`mark` at window boundaries — the serving engine
    drives it from its periodic tick — then :meth:`counter_samples` /
    :meth:`summary`.
    """

    def __init__(self, devices, start_ns: float = 0.0) -> None:
        self.devices = list(devices)
        self._timelines: list[Timeline] = [
            device.stats.timeline("", start_ns=start_ns)
            for device in self.devices
        ]
        self._occupancy = [OccupancySeries(device.units)
                           for device in self.devices]
        self._last_ns = [start_ns] * len(self.devices)
        #: (name, pid, t_ns, value) rows, in mark order.
        self.samples: list[tuple[str, int, float, float]] = []

    def mark(self, now_ns: float) -> None:
        """Close one window on every device and append its samples."""
        for i, (device, timeline, occupancy) in enumerate(
                zip(self.devices, self._timelines, self._occupancy)):
            if now_ns <= self._last_ns[i]:
                # zero-length (or rewound) window: nothing accumulated,
                # and the ratio math below would divide by a zero span —
                # skip rather than raise, re-marking the same instant is
                # a legitimate caller pattern (final tick == finish)
                continue
            window = timeline.mark(now_ns)
            span = window.span_ns
            pid = device.trace_pid
            deltas = window.deltas

            hits = deltas.get("l2.read_hits", 0.0) \
                + deltas.get("l2.write_hits", 0.0)
            accesses = hits + deltas.get("l2.read_misses", 0.0) \
                + deltas.get("l2.write_misses", 0.0)
            dram_bytes = deltas.get("cxl_dram.bytes", 0.0)
            link_bytes = deltas.get("cxl.up_bytes", 0.0) \
                + deltas.get("cxl.down_bytes", 0.0)
            occupancy = occupancy.window_mean(self._last_ns[i], now_ns)

            peak = span * device.dram.peak_bw_bytes_per_ns
            rows = (
                ("subcore.occupancy", occupancy),
                ("l2.hit_rate", hits / accesses if accesses else 0.0),
                ("dram.busy", min(dram_bytes / peak, 1.0) if peak > 0
                 else 0.0),
                ("link.gbps", link_bytes / span if span > 0 else 0.0),
            )
            for name, value in rows:
                self.samples.append((name, pid, now_ns, value))
            self._last_ns[i] = now_ns

    def detach(self) -> None:
        """Stop keeping the devices' occupancy points (after the last
        :meth:`mark`)."""
        for occupancy in self._occupancy:
            occupancy.detach()

    def counter_samples(self) -> list[tuple[str, int, float, float]]:
        """Rows for :func:`repro.obs.export.to_chrome_trace`'s counters."""
        return list(self.samples)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-device mean of every series (for the run manifest)."""
        sums: dict[tuple[int, str], tuple[float, int]] = {}
        for name, pid, _t, value in self.samples:
            total, count = sums.get((pid, name), (0.0, 0))
            sums[(pid, name)] = (total + value, count + 1)
        out: dict[str, dict[str, float]] = {}
        for (pid, name), (total, count) in sorted(sums.items()):
            out.setdefault(f"device{pid - 1}", {})[f"{name}.mean"] = (
                total / count if count else 0.0)
        return out
