"""Tests for the discrete-event engine and virtual-time servers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import BandwidthServer, IssueServer, Simulator


class TestSimulator:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(3.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_timestamp_rejected(self):
        # NaN compares False both ways, so a `< 0` guard would let it
        # into the heap: 5, nan, 1, 3, 2, 4 would fire as 1, 4, 2, 3, nan, 5
        nan = float("nan")
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(nan, lambda: None)
        fired = []
        for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.schedule(delay, lambda d=delay: fired.append((d, sim.now)))
        sim.run()
        assert fired == [(d, d) for d in (1.0, 2.0, 3.0, 4.0, 5.0)]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(2.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=50))
    def test_arbitrary_schedules_fire_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda t=d: fired.append(t))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
           st.lists(st.integers(0, 4), max_size=12))
    def test_reserved_chain_fires_as_if_scheduled_up_front(self, gaps,
                                                           others):
        # a stream of known (tied) times, scheduled one at a time under
        # reserved numbers, interleaves with other (tied) events exactly
        # as scheduling the whole stream first would
        times = [float(sum(gaps[:i + 1])) for i in range(len(gaps))]

        def run(chained):
            sim, fired = Simulator(), []
            if chained:
                first = sim.reserve(len(times))

                def arrive(i):
                    if i + 1 < len(times):
                        sim.schedule_reserved(times[i + 1], first + i + 1,
                                              lambda: arrive(i + 1))
                    fired.append(("stream", i))

                sim.schedule_reserved(times[0], first, lambda: arrive(0))
            else:
                for i, t in enumerate(times):
                    sim.schedule_at(t, lambda i=i: fired.append(("stream", i)))
            for j, t in enumerate(others):
                sim.schedule_at(float(t),
                                lambda j=j: fired.append(("other", j)))
            sim.run()
            return fired, sim._seq

        assert run(True) == run(False)


class TestIssueServer:
    def test_idle_op_starts_immediately(self):
        server = IssueServer(width=4, period_ns=0.5)
        assert server.issue(10.0) == 10.0

    def test_throughput_limit(self):
        # width 4 at 0.5 ns/cycle => 8 ops/ns sustained
        server = IssueServer(width=4, period_ns=0.5)
        last = 0.0
        for _ in range(80):
            last = server.issue(0.0)
        # the 80th op starts after (80-1)/8 ns
        assert last == pytest.approx(79 / 8.0)

    def test_gap_resets_backlog(self):
        server = IssueServer(width=1, period_ns=1.0)
        server.issue(0.0)
        assert server.issue(100.0) == 100.0

    def test_next_free_does_not_charge(self):
        server = IssueServer(width=1, period_ns=1.0)
        assert server.next_free(0.0) == 0.0
        assert server.next_free(0.0) == 0.0
        assert server.ops_issued == 0

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            IssueServer(width=0, period_ns=1.0)
        with pytest.raises(SimulationError):
            IssueServer(width=1, period_ns=0.0)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=100))
    def test_sustained_rate_never_exceeds_width(self, width, ops):
        server = IssueServer(width=width, period_ns=1.0)
        last = 0.0
        for _ in range(ops):
            last = server.issue(0.0)
        # ops issued over [0, last] window cannot exceed width/period rate
        assert last >= (ops - 1) / width - 1e-9


class TestBandwidthServer:
    def test_single_transfer_time(self):
        server = BandwidthServer(64.0)   # 64 bytes/ns
        assert server.transfer(0.0, 256) == pytest.approx(4.0)

    def test_back_to_back_transfers_queue(self):
        server = BandwidthServer(64.0)
        first = server.transfer(0.0, 256)
        second = server.transfer(0.0, 256)
        assert second == pytest.approx(first + 4.0)

    def test_idle_gap(self):
        server = BandwidthServer(1.0)
        server.transfer(0.0, 10)
        assert server.transfer(100.0, 10) == pytest.approx(110.0)

    def test_bytes_accounted(self):
        server = BandwidthServer(1.0)
        server.transfer(0.0, 10)
        server.transfer(0.0, 20)
        assert server.bytes_transferred == 30

    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1,
                    max_size=30))
    def test_total_time_at_least_bytes_over_bw(self, sizes):
        server = BandwidthServer(8.0)
        finish = 0.0
        for size in sizes:
            finish = server.transfer(0.0, size)
        assert finish >= sum(sizes) / 8.0 - 1e-9


class TestRunUntil:
    def test_until_advances_now_past_last_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run(until=7.5)
        # the queue drained at t=1 but time still advances to the horizon
        # so components can be sampled at that exact instant
        assert fired == [1.0]
        assert sim.now == 7.5

    def test_until_on_empty_queue_advances_now(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_until_before_now_keeps_now(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        sim.run(until=2.0)
        assert sim.now == 5.0

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(4.0, lambda: fired.append(4))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert fired == [1, 4]
        assert sim.now == 10.0
