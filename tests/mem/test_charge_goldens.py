"""Golden digests of the L2/DRAM charge, bit for bit.

`TestDRAMBatch.test_matches_scalar_reference` compares the batch DRAM
path with the scalar one at ``rel=1e-9``, which cannot see a last-bit
change in a finish time; such a change moves every workload's
`sim_digest`.  These digests can: each is a sha256 over the exact bytes a
charge leaves behind (finish times, the DRAM model's four state arrays,
its counters), recorded from the implementation that rounded every
address to its burst, marked bank segments with diff / cumsum and sorted
the merge keys as int64.
"""

import hashlib

import numpy as np
import pytest

from repro.config import lpddr5_cxl_dram
from repro.mem.cache import SectorStream
from repro.mem.dram import DRAMModel
from repro.mem.layout import AddressLayout
from repro.ndp.device import M2NDPDevice
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

def _state_digest(sha, model: DRAMModel, prefix: str) -> None:
    for state in (model._open_row, model._ready_ns,
                  model._last_activate_ns, model._bus_busy_until):
        sha.update(state.tobytes())
    sha.update(repr(sorted(model.stats.counters(prefix).items())).encode())


def _arrivals(gen, n, gap):
    return np.cumsum(gen.uniform(0.0, gap, n))


def _dram_digest(case: str) -> str:
    cfg = lpddr5_cxl_dram()
    model = DRAMModel(cfg, StatsRegistry())
    gen = np.random.default_rng(3)
    sha = hashlib.sha256()
    batches = []
    if case == "spread":
        # 16 384 bursts over 1 GiB, each access a few bytes inside its
        # burst (the layout, not the caller, maps it onto the burst)
        n = 16384
        base = gen.integers(0, (1 << 30) // 32, n) * 32
        addrs = base + gen.integers(0, 24, n)
        batches.append((addrs, 8, _arrivals(gen, n, 0.2),
                        gen.random(n) < 0.3))
        batches.append((addrs[::-1].copy(), 8,
                        4000.0 + _arrivals(gen, n, 0.1), gen.random(n) < 0.5))
    elif case == "hot-channel":
        # every burst on channel 5: one long bus queue, every bank's chain
        layout = AddressLayout(cfg)
        candidates = gen.integers(0, (1 << 26) // 32, 200000) * 32
        channel, _bank, _row = layout.coordinates_batch(candidates)
        addrs = candidates[channel == 5][:6000]
        batches.append((addrs, 32, _arrivals(gen, addrs.size, 0.5),
                        gen.random(addrs.size) < 0.3))
    else:
        # rows opened by scalar accesses first: the batch's chains start
        # on hits, on conflicts and behind tRC-gated activates
        opened = gen.integers(0, (1 << 24) // 32, 300) * 32
        now = 0.0
        for addr in opened.tolist():
            now += float(gen.uniform(0.0, 3.0))
            done = model.access(addr, 32, now, False)
            sha.update(np.float64(done).tobytes())
        near = opened[gen.integers(0, opened.size, 3000)] \
            + gen.integers(-8, 8, 3000) * 32
        addrs = np.abs(near)
        batches.append((addrs, 32, now + _arrivals(gen, addrs.size, 0.3),
                        gen.random(addrs.size) < 0.4))
    for addrs, size, arrivals, writes in batches:
        finish = model.access_batch(addrs.astype(np.int64), size, arrivals,
                                    writes)
        sha.update(finish.tobytes())
    _state_digest(sha, model, "dram")
    return sha.hexdigest()


def _l2_writeback_digest() -> str:
    """Three launches' sector streams through the device L2 into DRAM:
    the first dirties it, the next two evict dirty lines while they
    fill, so writebacks and fills interleave in every DRAM batch."""
    device = M2NDPDevice(Simulator())
    partition = device.partitions[0]
    gen = np.random.default_rng(5)
    sha = hashlib.sha256()
    sector = device.config.l2.sector_bytes
    now = 0.0
    for launch, (footprint, write_share) in enumerate(
            ((16 << 20, 0.9), (16 << 20, 0.5), (8 << 20, 0.2))):
        n = 40000
        addrs = (gen.integers(0, footprint // sector, n) * sector
                 + launch * (4 << 20)).astype(np.int64)
        stream = SectorStream(addrs, gen.random(n) < write_share,
                              device.config.l2)
        arrivals = now + _arrivals(gen, n, 0.05)
        completion = device.l2_dram_access_batch(stream, arrivals, partition)
        sha.update(np.float64(completion).tobytes())
        now = float(arrivals[-1])
    _state_digest(sha, partition.dram, "cxl_dram")
    sha.update(repr(sorted(device.stats.counters("l2").items())).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("case", ["spread", "hot-channel",
                                  "scalar-opened-rows"])
def test_dram_batch_is_bit_identical(case, golden):
    golden(_dram_digest(case))


def test_l2_dram_charge_is_bit_identical(golden):
    golden(_l2_writeback_digest())


def test_coordinates_batch_equals_coordinates_up_to_2_40():
    layout = AddressLayout(lpddr5_cxl_dram())
    gen = np.random.default_rng(8)
    addrs = np.concatenate([
        gen.integers(0, 1 << 40, 4000),
        np.arange(4096) * 32,
        (1 << 40) - 1 - np.arange(64),
        1 << np.arange(41),
    ]).astype(np.int64)
    got = layout.coordinates_batch(addrs)
    want = np.array([layout.coordinates(a) for a in addrs.tolist()]).T
    for coordinate, expected in zip(got, want):
        assert coordinate.dtype == np.int64
        assert np.array_equal(coordinate, expected)
