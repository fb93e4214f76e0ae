"""CXL switch: multi-device fabrics, P2P access and M2NDP-in-switch.

Two scaling modes from the paper:

* **§III-I / Fig 12b** — several CXL-M2NDP expanders behind one switch.
  SW partitions data and launches one kernel per device; devices can read
  and atomically update peer HDM through direct P2P (CXL 3.0), paying the
  switch hop latency and the peer port's bandwidth.

* **§III-J / Fig 14b** — one M2NDP block *inside the switch* computing on
  data held in N passive CXL memories.  Aggregate bandwidth scales with
  the number of downstream ports, so NDP throughput grows with capacity
  even though the passive memories have no compute.
"""

from __future__ import annotations

from repro.config import CXLConfig
from repro.cxl.link import RETRY_NS
from repro.errors import ConfigError
from repro.sim.engine import BandwidthServer
from repro.sim.stats import StatsRegistry

#: Extra one-way latency contributed by a switch hop (§II-B: switched CXL
#: memory access approaches 300 ns LtU, i.e. the switch adds ~70 ns each way
#: on top of the direct path's ~35 ns).
SWITCH_HOP_NS = 70.0


class CXLSwitch:
    """A CXL switch with one upstream (host) port and N downstream ports."""

    def __init__(
        self,
        num_downstream: int,
        config: CXLConfig | None = None,
        stats: StatsRegistry | None = None,
    ) -> None:
        if num_downstream <= 0:
            raise ConfigError("switch needs at least one downstream port")
        self.config = config if config is not None else CXLConfig()
        self.stats = stats if stats is not None else StatsRegistry()
        bw = self.config.bw_per_dir_bytes_per_ns
        self.upstream = BandwidthServer(bw)
        self.downstream = [BandwidthServer(bw) for _ in range(num_downstream)]
        #: Active link-flap windows: port -> until_ns.  Empty
        #: for a healthy fabric, so the transfer paths stay zero-overhead.
        self._flaps: dict[int, float] = {}

    @property
    def num_downstream(self) -> int:
        return len(self.downstream)

    # ------------------------------------------------------------------

    def host_to_device(self, now_ns: float, port: int, size: int) -> float:
        """Host → device through the switch (adds the hop latency)."""
        up_done = self.upstream.transfer(now_ns, size)
        down_done = self.downstream[port].transfer(up_done, size)
        self.stats.add("switch.host_bytes", size)
        done = down_done + self.config.one_way_ns + SWITCH_HOP_NS
        if self._flaps:
            done += self._flap_penalty(now_ns, port)
        return done

    def peer_to_peer(self, now_ns: float, src_port: int, dst_port: int,
                     size: int) -> float:
        """Direct P2P between two downstream devices (§II-B, CXL 3.0)."""
        if src_port == dst_port:
            raise ConfigError("P2P requires two distinct ports")
        src_done = self.downstream[src_port].transfer(now_ns, size)
        dst_done = self.downstream[dst_port].transfer(src_done, size)
        self.stats.add("switch.p2p_bytes", size)
        done = dst_done + 2 * self.config.one_way_ns + SWITCH_HOP_NS
        if self._flaps:
            done += self._flap_penalty(now_ns, src_port)
            done += self._flap_penalty(now_ns, dst_port)
        return done

    # -- RAS: link flap windows (CXL CRC/retry) ------------------------

    def start_flap(self, port: int, until_ns: float) -> None:
        """Open a flap window on ``port``: packets crossing it before
        ``until_ns`` are retried and charged :data:`RETRY_NS` each."""
        if not 0 <= port < self.num_downstream:
            raise ConfigError(f"no downstream port {port}")
        self._flaps[port] = until_ns
        self.stats.add("switch.link_flaps")

    def _flap_penalty(self, now_ns: float, port: int) -> float:
        until_ns = self._flaps.get(port)
        if until_ns is None:
            return 0.0
        if now_ns >= until_ns:
            del self._flaps[port]      # window over: lazy cleanup
            return 0.0
        self.stats.add("switch.link_retries")
        return RETRY_NS

    # ------------------------------------------------------------------

    def in_switch_ndp_bandwidth(self, num_memories: int) -> float:
        """Effective bandwidth for M2NDP-in-switch over ``num_memories``
        passive expanders (Fig 14b): limited by the downstream ports used."""
        if not 1 <= num_memories <= self.num_downstream:
            raise ConfigError(
                f"num_memories {num_memories} outside [1, {self.num_downstream}]"
            )
        return sum(p.bytes_per_ns for p in self.downstream[:num_memories])
