"""Tests for CXL protocol structures and link timing."""

import pytest

from repro.config import CXLConfig
from repro.cxl.link import CXLLink
from repro.cxl.protocol import HEADER_BYTES, CXLPacket, PacketType
from repro.errors import ConfigError


class TestPortLatency:
    def test_round_trip_in_paper_range(self):
        # Fig 2: 52-70 ns for the CXL.mem port-to-port round trip
        assert 52.0 <= CXLConfig().port_to_port_round_trip_ns <= 70.0

    def test_one_way_is_half(self):
        # also on Fig 13a's stretched link, whose round trip absorbs the LtU
        for config in (CXLConfig(), CXLConfig().with_load_to_use(600.0)):
            assert config.one_way_ns == pytest.approx(
                config.port_to_port_round_trip_ns / 2)


class TestPacketWireBytes:
    def test_read_request_is_header_only(self):
        packet = CXLPacket(PacketType.MEM_RD, 64)
        assert packet.wire_bytes == HEADER_BYTES

    def test_write_carries_payload(self):
        packet = CXLPacket(PacketType.MEM_WR, 64, data=b"\0" * 64)
        assert packet.wire_bytes == HEADER_BYTES + 64

    def test_read_response_carries_data(self):
        packet = CXLPacket(PacketType.MEM_RD_RESP, 64, data=b"\0" * 64)
        assert packet.wire_bytes == HEADER_BYTES + 64

    def test_ack_is_small(self):
        packet = CXLPacket(PacketType.MEM_WR_ACK, 0)
        assert packet.wire_bytes == HEADER_BYTES


class TestCXLConfig:
    def test_default_one_way(self):
        assert CXLConfig().one_way_ns == pytest.approx(35.0)

    def test_with_load_to_use_preserves_fixed(self):
        config = CXLConfig()
        stretched = config.with_load_to_use(600.0)
        assert stretched.load_to_use_ns == 600.0
        assert stretched.fixed_overhead_ns == pytest.approx(
            config.fixed_overhead_ns
        )

    def test_too_small_ltu_rejected(self):
        with pytest.raises(ConfigError):
            CXLConfig().with_load_to_use(50.0)


class TestCXLLink:
    def test_one_way_latency_applied(self):
        link = CXLLink()
        packet = CXLPacket(PacketType.MEM_RD, 64)
        arrival = link.send_to_device(0.0, packet)
        assert arrival >= link.one_way_ns

    def test_bandwidth_saturation(self):
        link = CXLLink()
        finish = 0.0
        n, size = 200, 256
        for _ in range(n):
            packet = CXLPacket(PacketType.MEM_WR, size, data=b"\0" * size)
            finish = link.send_to_device(0.0, packet)
        wire = HEADER_BYTES + size
        expected_min = n * wire / link.config.bw_per_dir_bytes_per_ns
        assert finish >= expected_min

    def test_directions_independent(self):
        link = CXLLink()
        big = CXLPacket(PacketType.MEM_WR, 4096, data=b"\0" * 4096)
        for _ in range(100):
            link.send_to_device(0.0, big)
        # upstream unaffected by downstream congestion
        response = CXLPacket(PacketType.MEM_RD_RESP, 64, data=b"\0" * 64)
        assert link.send_to_host(0.0, response) <= 40.0

    def test_back_invalidate_dirty_slower_than_clean(self):
        link = CXLLink()
        clean = link.back_invalidate_round_trip(0.0, dirty=False)
        link2 = CXLLink()
        dirty = link2.back_invalidate_round_trip(0.0, dirty=True)
        assert dirty >= clean

    def test_bytes_moved_accounting(self):
        link = CXLLink()
        write = CXLPacket(PacketType.MEM_WR, 64, data=b"\0" * 64)
        link.send_to_host(link.send_to_device(0.0, write),
                          CXLPacket(PacketType.MEM_WR_ACK, 0))
        moved = link.stats.get("cxl.down_bytes") + link.stats.get("cxl.up_bytes")
        assert moved == HEADER_BYTES * 2 + 64
