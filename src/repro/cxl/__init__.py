"""CXL interconnect models: protocol, link, packet filter, HDM, switch."""

from repro.cxl.hdm import HDMCoherence
from repro.cxl.link import CXLLink
from repro.cxl.packet_filter import ENTRY_BYTES, FilterEntry, PacketFilter
from repro.cxl.protocol import HEADER_BYTES, CXLPacket, PacketType
from repro.cxl.switch import SWITCH_HOP_NS, CXLSwitch

__all__ = [
    "CXLLink",
    "CXLPacket",
    "CXLSwitch",
    "ENTRY_BYTES",
    "FilterEntry",
    "HDMCoherence",
    "HEADER_BYTES",
    "PacketFilter",
    "PacketType",
    "SWITCH_HOP_NS",
]
