"""Tests for HDM coherence (back-invalidation) and the CXL switch."""

import pytest

from repro.cxl.hdm import HDMCoherence, _line_hash
from repro.cxl.link import CXLLink
from repro.cxl.switch import SWITCH_HOP_NS, CXLSwitch
from repro.errors import ConfigError
from repro.sim.stats import StatsRegistry


class TestHDMCoherence:
    def test_zero_fraction_never_invalidates(self):
        coherence = HDMCoherence(CXLLink(), dirty_fraction=0.0)
        assert coherence.access(0x1000, 64, 5.0) == 5.0

    def test_full_fraction_always_invalidates_once(self):
        stats = StatsRegistry()
        coherence = HDMCoherence(CXLLink(), dirty_fraction=1.0, stats=stats)
        first = coherence.access(0x1000, 64, 0.0)
        assert first > 0.0
        # second touch of the same line: already invalidated
        second = coherence.access(0x1000, 64, 1000.0)
        assert second == 1000.0
        assert stats.get("hdm.back_invalidations") == 1

    def test_fraction_controls_rate(self):
        lines = 2000
        for fraction in (0.2, 0.8):
            stats = StatsRegistry()
            coherence = HDMCoherence(CXLLink(), fraction, stats=stats)
            for i in range(lines):
                coherence.access(i * 64, 64, 0.0)
            observed = stats.get("hdm.back_invalidations") / lines
            assert observed == pytest.approx(fraction, abs=0.05)

    def test_hash_deterministic(self):
        assert _line_hash(12345) == _line_hash(12345)
        assert 0.0 <= _line_hash(999) < 1.0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            HDMCoherence(None, dirty_fraction=1.5)


class TestCXLSwitch:
    def test_host_path_pays_hop(self):
        switch = CXLSwitch(num_downstream=4)
        done = switch.host_to_device(0.0, 0, 64)
        assert done >= SWITCH_HOP_NS

    def test_p2p_requires_distinct_ports(self):
        switch = CXLSwitch(num_downstream=4)
        with pytest.raises(ConfigError):
            switch.peer_to_peer(0.0, 1, 1, 64)

    def test_p2p_slower_than_direct(self):
        switch = CXLSwitch(num_downstream=4)
        p2p = switch.peer_to_peer(0.0, 0, 1, 64)
        direct = switch.host_to_device(0.0, 2, 64)
        assert p2p > direct - SWITCH_HOP_NS

    def test_aggregate_bandwidth_scales(self):
        switch = CXLSwitch(num_downstream=8)
        assert switch.in_switch_ndp_bandwidth(8) == pytest.approx(
            8 * switch.in_switch_ndp_bandwidth(1)
        )

    def test_in_switch_bounds(self):
        switch = CXLSwitch(num_downstream=4)
        with pytest.raises(ConfigError):
            switch.in_switch_ndp_bandwidth(5)
        with pytest.raises(ConfigError):
            switch.in_switch_ndp_bandwidth(0)

    def test_port_contention(self):
        switch = CXLSwitch(num_downstream=2)
        first = switch.host_to_device(0.0, 0, 1 << 16)
        second = switch.host_to_device(0.0, 0, 1 << 16)
        assert second > first

    def test_needs_downstream_port(self):
        with pytest.raises(ConfigError):
            CXLSwitch(num_downstream=0)


class TestSwitchTiming:
    """Hop-latency constants and bandwidth contention on the switch paths."""

    def test_host_to_device_latency_decomposition(self):
        switch = CXLSwitch(num_downstream=2)
        size = 4096
        bw = switch.config.bw_per_dir_bytes_per_ns
        done = switch.host_to_device(0.0, 0, size)
        # upstream then downstream serialization, plus one link one-way and
        # the switch hop
        expected = 2 * size / bw + switch.config.one_way_ns + SWITCH_HOP_NS
        assert done == pytest.approx(expected)

    def test_p2p_latency_decomposition(self):
        switch = CXLSwitch(num_downstream=4)
        size = 1 << 14
        bw = switch.config.bw_per_dir_bytes_per_ns
        done = switch.peer_to_peer(0.0, 2, 3, size)
        # src port egress, dst port ingress, two link one-ways + the hop
        expected = 2 * size / bw + 2 * switch.config.one_way_ns + SWITCH_HOP_NS
        assert done == pytest.approx(expected)

    def test_upstream_contention_serializes_overlapping_transfers(self):
        switch = CXLSwitch(num_downstream=2)
        size = 1 << 16
        bw = switch.config.bw_per_dir_bytes_per_ns
        # both transfers arrive at t=0 for *different* downstream ports: the
        # shared upstream port serializes them
        first = switch.host_to_device(0.0, 0, size)
        second = switch.host_to_device(0.0, 1, size)
        assert second - first == pytest.approx(size / bw)

    def test_downstream_contention_under_overlap(self):
        switch = CXLSwitch(num_downstream=4)
        size = 1 << 16
        bw = switch.config.bw_per_dir_bytes_per_ns
        # two P2P flows into the same destination port from different
        # sources: destination ingress is the bottleneck
        first = switch.peer_to_peer(0.0, 0, 2, size)
        second = switch.peer_to_peer(0.0, 1, 2, size)
        assert second - first == pytest.approx(size / bw)

    def test_disjoint_ports_do_not_contend(self):
        switch = CXLSwitch(num_downstream=4)
        size = 1 << 16
        first = switch.peer_to_peer(0.0, 0, 1, size)
        second = switch.peer_to_peer(0.0, 2, 3, size)
        assert second == pytest.approx(first)

    def test_same_port_p2p_rejected(self):
        switch = CXLSwitch(num_downstream=4)
        with pytest.raises(ConfigError):
            switch.peer_to_peer(0.0, 3, 3, 64)

    def test_byte_counters_accumulate(self):
        switch = CXLSwitch(num_downstream=2)
        switch.host_to_device(0.0, 0, 100)
        switch.host_to_device(0.0, 1, 50)
        switch.peer_to_peer(0.0, 0, 1, 25)
        assert switch.stats.get("switch.host_bytes") == 150
        assert switch.stats.get("switch.p2p_bytes") == 25
