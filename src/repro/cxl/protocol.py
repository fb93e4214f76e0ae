"""CXL.mem protocol: packet types and their wire sizes.

The link's latency — Fig 2's port-to-port round trip and the load-to-use
profile Fig 13a stretches — is :class:`repro.config.CXLConfig`.  Only the
subset of CXL.mem needed by M2NDP is modeled:

* ``MEM_RD`` / ``MEM_RD_RESP`` — 64 B cacheline reads (M2S Req / S2M DRS),
* ``MEM_WR`` / ``MEM_WR_ACK``  — writes with data (M2S RwD / S2M NDR),
* ``BI_SNP`` / ``BI_RSP``      — HDM-DB back-invalidation (CXL 3.0).

M2func calls are *ordinary* ``MEM_WR``/``MEM_RD`` packets to addresses inside
a filter-matched region — the whole point of the paper is that no new packet
type is required — so the packet filter, not the packet, decides whether a
request is a function call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PacketType(enum.Enum):
    MEM_RD = "mem_rd"
    MEM_RD_RESP = "mem_rd_resp"
    MEM_WR = "mem_wr"
    MEM_WR_ACK = "mem_wr_ack"
    BI_SNP = "bi_snp"
    BI_RSP = "bi_rsp"


#: Protocol header overhead per message, in bytes (slot within a 256 B flit).
HEADER_BYTES = 16


@dataclass(frozen=True)
class CXLPacket:
    """One CXL.mem message; ``data`` carries write payloads / read
    responses.  What crosses the link is its size, so it names no
    address."""

    ptype: PacketType
    size: int = 64
    data: bytes | None = None

    @property
    def wire_bytes(self) -> int:
        """Bytes of link occupancy: header plus any payload."""
        payload = len(self.data) if self.data is not None else 0
        if self.ptype in (PacketType.MEM_RD, PacketType.MEM_WR_ACK,
                          PacketType.BI_SNP, PacketType.BI_RSP):
            return HEADER_BYTES
        if self.ptype == PacketType.MEM_WR:
            return HEADER_BYTES + max(payload, self.size)
        return HEADER_BYTES + max(payload, self.size)  # read response carries data
