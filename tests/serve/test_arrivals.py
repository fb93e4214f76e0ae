"""Arrival process generators: determinism, shapes, spec validation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import arrivals
from repro.serve.arrivals import (
    ArrivalSpec,
    ClosedLoopArrivals,
    make_arrival_process,
    stream_rng,
)


def _times(spec, name="t"):
    return make_arrival_process(spec, stream_rng(7, name)).initial(0.0)


class TestStreamRng:
    def test_same_seed_and_name_reproduce(self):
        a = stream_rng(42, "tenant").random(8)
        b = stream_rng(42, "tenant").random(8)
        assert np.array_equal(a, b)

    def test_different_names_decorrelate(self):
        a = stream_rng(42, "tenant-a").random(8)
        b = stream_rng(42, "tenant-b").random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_decorrelate(self):
        a = stream_rng(1, "tenant").random(8)
        b = stream_rng(2, "tenant").random(8)
        assert not np.array_equal(a, b)


class TestPoisson:
    def test_count_and_monotone(self):
        times = _times(ArrivalSpec("poisson", rate_rps=1e6, requests=200))
        assert len(times) == 200
        assert np.all(np.diff(times) >= 0)

    def test_mean_rate_roughly_honored(self):
        spec = ArrivalSpec("poisson", rate_rps=1e6, requests=2000)
        times = _times(spec)
        mean_gap = float(np.mean(np.diff(times)))
        assert 0.8 * spec.interarrival_ns < mean_gap < 1.2 * spec.interarrival_ns

    def test_deterministic(self):
        spec = ArrivalSpec("poisson", rate_rps=1e6, requests=64)
        assert np.array_equal(_times(spec), _times(spec))


class TestBursty:
    def test_burstier_than_poisson(self):
        n = 2000
        poisson = _times(ArrivalSpec("poisson", rate_rps=1e6, requests=n))
        bursty = _times(ArrivalSpec("bursty", rate_rps=2e5,
                                    burst_rate_rps=1e7, dwell_ns=50_000.0,
                                    requests=n))
        def cv(times):
            gaps = np.diff(times)
            return float(np.std(gaps) / np.mean(gaps))
        assert cv(bursty) > 1.5 * cv(poisson)

    def test_count_and_monotone(self):
        times = _times(ArrivalSpec("bursty", rate_rps=1e5,
                                   burst_rate_rps=1e6, requests=128))
        assert len(times) == 128
        assert np.all(np.diff(times) >= 0)


class TestDiurnal:
    def test_count_and_monotone(self, monkeypatch):
        monkeypatch.setattr(arrivals, "DIURNAL_AMPLITUDE", 0.8)
        times = _times(ArrivalSpec("diurnal", rate_rps=1e6, requests=256,
                                   period_ns=1e5))
        assert len(times) == 256
        assert np.all(np.diff(times) >= 0)

    def test_peak_phase_denser_than_trough(self, monkeypatch):
        monkeypatch.setattr(arrivals, "DIURNAL_AMPLITUDE", 0.9)
        spec = ArrivalSpec("diurnal", rate_rps=1e6, requests=4000,
                           period_ns=1e6)
        times = _times(spec)
        phase = np.mod(times, spec.period_ns) / spec.period_ns
        peak = np.sum((phase > 0.1) & (phase < 0.4))     # sin > 0 half
        trough = np.sum((phase > 0.6) & (phase < 0.9))   # sin < 0 half
        assert peak > 1.5 * trough


class TestTrace:
    def test_replays_offsets_from_epoch(self):
        spec = ArrivalSpec("trace", times=(0.0, 10.0, 10.0, 35.0))
        times = make_arrival_process(spec, stream_rng(0, "x")).initial(100.0)
        assert list(times) == [100.0, 110.0, 110.0, 135.0]

    def test_total_requests_is_trace_length(self):
        assert ArrivalSpec("trace", times=(1.0, 2.0)).total_requests == 2


class TestClosedLoop:
    def test_initial_seeds_one_per_client(self):
        spec = ArrivalSpec("closed", requests=50, clients=4, think_ns=100.0)
        process = make_arrival_process(spec, stream_rng(3, "c"))
        assert isinstance(process, ClosedLoopArrivals)
        assert len(process.initial(0.0)) == 4
        assert not process.open_loop

    def test_completion_feedback_until_budget(self):
        spec = ArrivalSpec("closed", requests=6, clients=2, think_ns=10.0)
        process = make_arrival_process(spec, stream_rng(3, "c"))
        process.initial(0.0)
        emitted = 2
        when = 100.0
        while True:
            nxt = process.on_completion(when)
            if nxt is None:
                break
            assert nxt >= when
            emitted += 1
            when = nxt + 5.0
        assert emitted == 6
        assert process.exhausted

    def test_clients_capped_by_budget(self):
        spec = ArrivalSpec("closed", requests=3, clients=8)
        process = make_arrival_process(spec, stream_rng(3, "c"))
        assert len(process.initial(0.0)) == 3


class TestValidation:
    def test_unknown_process(self):
        with pytest.raises(ConfigError):
            ArrivalSpec("fractal")

    def test_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            ArrivalSpec("poisson", rate_rps=0.0)

    def test_burst_below_base_rate(self):
        with pytest.raises(ConfigError):
            ArrivalSpec("bursty", rate_rps=1e6, burst_rate_rps=1e5)

    def test_decreasing_trace(self):
        with pytest.raises(ConfigError):
            ArrivalSpec("trace", times=(5.0, 1.0))

    def test_empty_trace(self):
        with pytest.raises(ConfigError):
            ArrivalSpec("trace")

    def test_zero_clients(self):
        with pytest.raises(ConfigError):
            ArrivalSpec("closed", clients=0)
