"""The L2/DRAM charge keeps its batch-length arrays in one workspace.

A steady-state charge allocates no array of the batch's length, so it
needs no process-wide allocator policy to run without faulting pages in
again: no ``mallopt`` anywhere, and a fresh interpreter's later rounds of
charges fault next to nothing.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import CacheConfig, SystemConfig, lpddr5_cxl_dram
from repro.mem.cache import SectorStream
from repro.mem.dram import DRAMModel
from repro.ndp.device import M2NDPDevice
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

SRC = Path(repro.__file__).resolve().parents[1]
N = 16384               # the bursts of every DRAM batch of stream_warm_serve
LIMIT = 128 << 10       # glibc's default mmap threshold: one int64 array of N


def _traced_peak_rise(charge) -> int:
    """How far one call of ``charge`` raises the traced peak above what
    was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        charge()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _cycle(device, gen) -> list:
    """Nine 16 384-sector streams of 512 KiB each, 30 % writes: charged
    in turn they overflow the 4 MiB L2, so every charge misses on every
    sector and evicts (dirty) lines of an earlier stream."""
    sector = device.config.l2.sector_bytes
    return [SectorStream(region * (N * sector) + np.arange(N) * sector,
                         gen.random(N) < 0.3, device.config.l2)
            for region in range(9)]


def test_dram_batch_allocates_nothing_of_the_batch_length():
    model = DRAMModel(lpddr5_cxl_dram(), StatsRegistry())
    gen = np.random.default_rng(1)
    addrs = gen.integers(0, (1 << 30) // 32, N) * 32
    arrivals = np.cumsum(gen.uniform(0.0, 0.2, N))
    writes = gen.random(N) < 0.3
    later = arrivals + float(arrivals[-1])
    model.access_batch(addrs, 32, arrivals, writes)
    rise = _traced_peak_rise(
        lambda: model.access_batch(addrs, 32, later, writes))
    assert rise < LIMIT, rise


def test_l2_dram_charge_allocates_nothing_of_the_batch_length():
    device = M2NDPDevice(Simulator())
    partition = device.partitions[0]
    gen = np.random.default_rng(2)
    streams = _cycle(device, gen)
    now = 0.0

    def charge(stream):
        nonlocal now
        arrivals = now + np.arange(N) * 0.05
        now = float(arrivals[-1])
        return lambda: device.l2_dram_access_batch(stream, arrivals,
                                                   partition)

    for stream in streams:              # warm: one round of the cycle
        charge(stream)()
    misses = device.stats.get("l2.read_misses")
    rise = _traced_peak_rise(charge(streams[0]))
    assert device.stats.get("l2.read_misses") - misses \
        == np.count_nonzero(~streams[0].writes)
    assert device.stats.get("l2.writebacks") > 0
    assert rise < LIMIT, rise


def test_devices_with_other_sector_masks_share_one_workspace():
    # a 128 B line's sector masks are uint8, a 512 B line's uint16: the
    # second device's charge must not reuse the first's uint8 arrays
    sim = Simulator()
    narrow = M2NDPDevice(sim)
    l2 = narrow.config.l2
    addrs = np.arange(64, dtype=np.int64) * l2.sector_bytes
    narrow.l2.access_batch(SectorStream(addrs, np.ones(64, bool), l2))
    cfg = CacheConfig("w", 2 * 2 * 512, 2, 512, 32, 1.0)
    wide = M2NDPDevice(sim, SystemConfig(l2=cfg))
    # dirty sectors 0 and 15 of line 0, then lines 2 and 4 of its set:
    # line 4 evicts line 0, which writes both sectors back
    addrs = np.array([0, 15 * 32, 2 * 512, 4 * 512 + 9 * 32], dtype=np.int64)
    writes = np.array([True, True, False, False])
    wide.l2.access_batch(SectorStream(addrs[:2], writes[:2], cfg))
    second = wide.l2.access_batch(SectorStream(addrs[2:], writes[2:], cfg))
    assert second.wb_addrs.tolist() == [0, 15 * 32]


# rounds of the cycle above in a fresh interpreter; prints the minor
# faults of the rounds after the first
ROUNDS = """
import resource
import numpy as np
from repro.ndp.device import M2NDPDevice
from repro.sim.engine import Simulator
from test_charge_workspace import N, _cycle

device = M2NDPDevice(Simulator())
streams = _cycle(device, np.random.default_rng(3))
now = 0.0
faults = 0
for round_ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for stream in streams:
        arrivals = now + np.arange(N) * 0.05
        now = float(arrivals[-1])
        device.l2_dram_access_batch(stream, arrivals, device.partitions[0])
    if round_:
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts as Linux reports them")
def test_later_charges_fault_next_to_nothing_without_mallopt():
    assert not [path for path in SRC.joinpath("repro").rglob("*.py")
                if "mallopt" in path.read_text()]
    # a fresh interpreter: the suite's earlier allocations move glibc's
    # dynamic thresholds
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).parent)]))
    done = subprocess.run([sys.executable, "-c", ROUNDS], env=env,
                          capture_output=True, text=True, check=True)
    faults = int(done.stdout.split()[-1])
    # 27 charges of 16 384 sectors, each with ~20 k DRAM bursts
    assert faults <= 256, faults
