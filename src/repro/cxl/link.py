"""CXL link timing: latency plus per-direction bandwidth.

A CXL 3.0 x8 link moves 64 GB/s in each direction (Table IV).  Each
direction is a :class:`~repro.sim.engine.BandwidthServer`; messages pay the
one-way port latency and occupy the direction for ``wire_bytes /
bandwidth``.  This makes the link the bottleneck for bandwidth-hungry
passive-memory baselines — the core phenomenon of Fig 1a — while staying
cheap for the sparse traffic of M2func calls.
"""

from __future__ import annotations

import numpy as np

from repro.config import CXLConfig
from repro.cxl.protocol import CXLPacket, PacketType
from repro.sim.engine import BandwidthServer
from repro.sim.stats import StatsRegistry

#: Extra latency charged per packet retried through a flapping link (a
#: handful of CRC retries at link latency each), on a device link and on
#: its switch port alike.
RETRY_NS = 500.0


class CXLLink:
    """Bidirectional CXL link between one host port and one device port."""

    def __init__(
        self,
        config: CXLConfig | None = None,
        stats: StatsRegistry | None = None,
        stats_prefix: str = "cxl",
    ) -> None:
        self.config = config if config is not None else CXLConfig()
        self.stats = stats if stats is not None else StatsRegistry()
        self.prefix = stats_prefix
        self._down = BandwidthServer(self.config.bw_per_dir_bytes_per_ns)  # host→dev
        self._up = BandwidthServer(self.config.bw_per_dir_bytes_per_ns)    # dev→host
        #: End of the active flap window; None for a healthy link,
        #: keeping the per-packet paths zero-overhead.
        self._flap: float | None = None

    # ------------------------------------------------------------------

    @property
    def one_way_ns(self) -> float:
        return self.config.one_way_ns

    def send_to_device(self, now_ns: float, packet: CXLPacket) -> float:
        """Transmit host→device; returns arrival time at the device port."""
        finish = self._down.transfer(now_ns, packet.wire_bytes)
        self.stats.add(f"{self.prefix}.down_bytes", packet.wire_bytes)
        self.stats.add(f"{self.prefix}.down_msgs")
        if self._flap is not None:
            finish += self._flap_penalty(now_ns)
        return finish + self.one_way_ns

    def send_to_host(self, now_ns: float, packet: CXLPacket) -> float:
        """Transmit device→host; returns arrival time at the host port."""
        finish = self._up.transfer(now_ns, packet.wire_bytes)
        self.stats.add(f"{self.prefix}.up_bytes", packet.wire_bytes)
        self.stats.add(f"{self.prefix}.up_msgs")
        if self._flap is not None:
            finish += self._flap_penalty(now_ns)
        return finish + self.one_way_ns

    # -- RAS: link flap windows (CXL CRC/retry) ----------------------------

    def start_flap(self, until_ns: float) -> None:
        """Open a flap window: packets sent before ``until_ns`` are retried
        and charged :data:`RETRY_NS` each (CXL link CRC/retry)."""
        self._flap = until_ns
        self.stats.add(f"{self.prefix}.link_flaps")

    def _flap_penalty(self, now_ns: float) -> float:
        if now_ns >= self._flap:
            self._flap = None          # window over: lazy cleanup
            return 0.0
        self.stats.add(f"{self.prefix}.link_retries")
        return RETRY_NS

    # -- back-invalidation snoops -----------------------------------------

    def back_invalidate_round_trip(self, now_ns: float,
                                   dirty: bool) -> float:
        """Device-initiated BI snoop; dirty lines return 64 B of data."""
        snoop = CXLPacket(PacketType.BI_SNP, 0)
        at_host = self.send_to_host(now_ns, snoop)
        if dirty:
            response = CXLPacket(PacketType.MEM_WR, 64, data=b"\0" * 64)
        else:
            response = CXLPacket(PacketType.BI_RSP, 0)
        return self.send_to_device(at_host, response)

    def back_invalidate_batch(self, arrivals_ns, dirty: bool = True):
        """Bulk BI snoops: one round trip per element, bandwidth-charged.

        Vectorized counterpart of :meth:`back_invalidate_round_trip` for
        the batched execution backend: the snoops occupy the up direction
        and the (dirty) responses the down direction via
        :meth:`~repro.sim.engine.BandwidthServer.charge_batch`; returns
        per-element data-ready times at the device.
        """
        arrivals_ns = np.asarray(arrivals_ns, dtype=np.float64)
        count = arrivals_ns.size
        if count == 0:
            return arrivals_ns.copy()
        snoop = CXLPacket(PacketType.BI_SNP, 0)
        if dirty:
            response = CXLPacket(PacketType.MEM_WR, 64, data=b"\0" * 64)
        else:
            response = CXLPacket(PacketType.BI_RSP, 0)
        at_host = self._up.charge_batch(
            arrivals_ns, snoop.wire_bytes) + self.one_way_ns
        ready = self._down.charge_batch(
            at_host, response.wire_bytes) + self.one_way_ns
        self.stats.add(f"{self.prefix}.up_bytes", snoop.wire_bytes * count)
        self.stats.add(f"{self.prefix}.up_msgs", count)
        self.stats.add(f"{self.prefix}.down_bytes",
                       response.wire_bytes * count)
        self.stats.add(f"{self.prefix}.down_msgs", count)
        return ready
