"""Arrival processes: when do requests reach the serving frontend?

One tenant's traffic is described by an :class:`ArrivalSpec` and realized
by an :class:`ArrivalProcess` seeded from a per-stream
:class:`numpy.random.Generator` (see :func:`stream_rng` — every stream's
sequence is a pure function of the cluster config seed and the stream
name, so traffic runs are reproducible bit-for-bit across processes).

Five processes cover the serving scenarios the literature measures:

``poisson``
    Open-loop memoryless arrivals at a constant rate — the baseline the
    paper's KVStore P95 methodology uses (Fig 1b / Fig 10b).
``bursty``
    Two-state MMPP (Markov-modulated Poisson): the stream alternates
    between a calm phase at ``rate_rps`` and a burst phase at
    ``burst_rate_rps``, with exponentially distributed phase dwell times.
    Stresses admission control and autoscaling.
``diurnal``
    Nonhomogeneous Poisson whose instantaneous rate follows a sinusoid
    (``rate_rps`` mean, ``amplitude`` swing over ``period_ns``), sampled
    by thinning — a compressed day/night load curve.
``closed``
    Closed-loop client population: ``clients`` concurrent clients each
    issue, wait for the completion, think ``think_ns`` (exponential), and
    issue again.  Throughput is completion-driven, so an overloaded
    cluster sees backpressure instead of an unbounded queue.
``trace``
    Replay of explicit arrival offsets (ns since epoch) — regression
    traces and adversarial patterns for scheduler tests.

Open-loop processes expose every arrival up front via :meth:`initial`;
the closed loop seeds one arrival per client and generates the rest from
:meth:`on_completion` feedback.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import (AT_LEAST_ONE, FRACTION, NONNEGATIVE, POSITIVE,
                          ConfigError, check, check_fields, setting)

#: Valid arrival process names (TenantSpec / ArrivalSpec validation).
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal", "closed", "trace")


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-stream generator from a config seed + stream name.

    ``hash()`` is process-randomized, so the name is folded in with crc32;
    the (seed, crc32) entropy pair makes every stream's sequence stable
    across processes and independent of sibling streams.  The seed passes
    through unmasked — SeedSequence takes arbitrary nonnegative ints, and
    masking would alias seeds 2**32 apart into identical traffic.
    """
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative description of one tenant's arrival process."""

    process: str = "poisson"
    #: mean rate (calm-phase rate for bursty)
    rate_rps: float = setting(POSITIVE, 1e5)
    requests: int = setting(AT_LEAST_ONE, 100)   # total arrivals generated
    #: bursty: burst-phase rate and mean dwell per phase
    burst_rate_rps: float = setting(NONNEGATIVE, 0.0)
    dwell_ns: float = setting(POSITIVE, 100_000.0)
    #: diurnal: sinusoid swing (share of rate_rps) and period
    amplitude: float = setting(FRACTION, 0.5)
    period_ns: float = setting(POSITIVE, 1e6)
    #: closed loop: concurrent clients and mean think time
    clients: int = setting(AT_LEAST_ONE, 4)
    think_ns: float = setting(NONNEGATIVE, 10_000.0)
    #: trace: explicit arrival offsets (ns since epoch), nondecreasing
    times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"unknown arrival process {self.process!r}; "
                f"choose from {list(ARRIVAL_PROCESSES)}"
            )
        check_fields(self)
        for time in self.times:
            check("ArrivalSpec", "times", time, NONNEGATIVE)
        if self.process == "trace":
            if not self.times:
                raise ConfigError("trace arrivals need at least one time")
            if any(b < a for a, b in zip(self.times, self.times[1:])):
                raise ConfigError("trace arrival times must be nondecreasing")
        if self.process == "bursty" and self.burst_rate_rps < self.rate_rps:
            raise ConfigError("burst rate must be >= the calm rate")

    @property
    def total_requests(self) -> int:
        return len(self.times) if self.process == "trace" else self.requests

    @property
    def interarrival_ns(self) -> float:
        return 1e9 / self.rate_rps


class ArrivalProcess:
    """Generates one stream's arrival timestamps (ns, absolute).

    Each kind implements ``_initial(epoch_ns)``: the arrival times known
    before the run starts.
    """

    #: Closed-loop processes return new arrivals from completion feedback.
    open_loop = True

    def __init__(self, spec: ArrivalSpec, gen: np.random.Generator) -> None:
        self.spec = spec
        self.gen = gen
        self.generated = 0

    def initial(self, epoch_ns: float) -> np.ndarray:
        """Arrival times known before the run starts."""
        times = self._initial(epoch_ns)
        self.generated += len(times)
        return times

    def on_completion(self, complete_ns: float) -> float | None:
        """Next arrival triggered by a request finishing (closed loop)."""
        return None

    @property
    def exhausted(self) -> bool:
        """True once every arrival this process will ever emit is out."""
        return self.generated >= self.spec.total_requests


class PoissonArrivals(ArrivalProcess):
    """Constant-rate open-loop Poisson stream."""

    def _initial(self, epoch_ns: float) -> np.ndarray:
        gaps = self.gen.exponential(self.spec.interarrival_ns,
                                    self.spec.requests)
        return epoch_ns + np.cumsum(gaps)


class BurstyArrivals(ArrivalProcess):
    """Two-state MMPP: calm at ``rate_rps``, bursts at ``burst_rate_rps``."""

    def _initial(self, epoch_ns: float) -> np.ndarray:
        spec = self.spec
        out: list[float] = []
        now = epoch_ns
        bursting = False
        while len(out) < spec.requests:
            dwell = float(self.gen.exponential(spec.dwell_ns))
            rate = spec.burst_rate_rps if bursting else spec.rate_rps
            t = now
            while len(out) < spec.requests:
                t += float(self.gen.exponential(1e9 / rate))
                if t >= now + dwell:
                    break
                out.append(t)
            now += dwell
            bursting = not bursting
        return np.asarray(out[:spec.requests])


class DiurnalArrivals(ArrivalProcess):
    """Sinusoid-modulated Poisson sampled by thinning."""

    def _initial(self, epoch_ns: float) -> np.ndarray:
        spec = self.spec
        peak = spec.rate_rps * (1.0 + spec.amplitude)
        out: list[float] = []
        t = epoch_ns
        omega = 2.0 * np.pi / spec.period_ns
        while len(out) < spec.requests:
            t += float(self.gen.exponential(1e9 / peak))
            rate = spec.rate_rps * (
                1.0 + spec.amplitude * np.sin(omega * (t - epoch_ns))
            )
            if self.gen.random() * peak < rate:
                out.append(t)
        return np.asarray(out)


class TraceArrivals(ArrivalProcess):
    """Replay explicit arrival offsets relative to the epoch."""

    def _initial(self, epoch_ns: float) -> np.ndarray:
        return epoch_ns + np.asarray(self.spec.times, dtype=np.float64)


class ClosedLoopArrivals(ArrivalProcess):
    """``clients`` concurrent clients with exponential think time."""

    open_loop = False

    def _think(self) -> float:
        if self.spec.think_ns == 0:
            return 0.0
        return float(self.gen.exponential(self.spec.think_ns))

    def _initial(self, epoch_ns: float) -> np.ndarray:
        count = min(self.spec.clients, self.spec.requests)
        return epoch_ns + np.sort(
            np.asarray([self._think() for _ in range(count)])
        )

    def on_completion(self, complete_ns: float) -> float | None:
        if self.exhausted:
            return None
        self.generated += 1
        return complete_ns + self._think()


_PROCESS_CLASSES = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
    "closed": ClosedLoopArrivals,
    "trace": TraceArrivals,
}


def make_arrival_process(spec: ArrivalSpec,
                         gen: np.random.Generator) -> ArrivalProcess:
    """Instantiate the process class named by ``spec.process``."""
    return _PROCESS_CLASSES[spec.process](spec, gen)
