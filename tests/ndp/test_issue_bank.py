"""The device's issue bank and scratchpad rows against their per-object
references.

``IssueBank.charge`` and the row-view ``SubCore`` must produce the *same
floats* (``==``, no tolerance) as a grid of ``IssueServer`` objects driven
the way the engines drove them before the bank existed; a launch's
argument block must land in exactly its partition's unit window.
"""

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.config import NDPConfig
from repro.errors import ConfigError, SimulationError
from repro.host.api import pack_args
from repro.isa.encoding import FUnit
from repro.kernels.vecadd import VECADD
from repro.ndp.generator import ARG_SLOT_BYTES
from repro.ndp.subcore import FU_COLUMN, ISSUE_COLUMNS, IssueBank, SubCore
from repro.sim.engine import IssueServer

#: widths that do not divide the period evenly, so a different division or
#: multiplication order would show in the last bits
CONFIG = NDPConfig(num_units=8, subcores_per_unit=4, issue_width=3,
                   scalar_alus_per_subcore=3, vector_alus_per_subcore=1,
                   freq_ghz=1.7)


def issue_ops(dispatch_ops: int, fu_ops: dict) -> np.ndarray:
    """An instruction mix as the engines hand it to the bank: one row of
    counts, dispatched first, then per functional unit."""
    ops = np.zeros(ISSUE_COLUMNS, dtype=np.int64)
    ops[0] = dispatch_ops
    for fu, count in fu_ops.items():
        ops[FU_COLUMN[fu]] = count
    return ops


class ReferenceGrid:
    """One ``IssueServer`` per (unit, sub-core, column), charged one call at
    a time: what ``SubCore`` was made of and how the engines looped over it."""

    def __init__(self, config: NDPConfig) -> None:
        period = config.clock.period_ns
        widths = [config.issue_width, config.scalar_alus_per_subcore, 1, 1,
                  config.vector_alus_per_subcore, 1, 1]
        self.period = period
        self.servers = [[[IssueServer(width, period) for width in widths]
                         for _ in range(config.subcores_per_unit)]
                        for _ in range(config.num_units)]

    def charge(self, unit_base, num_units, start, ops) -> None:
        for unit in range(num_units):
            for sub, row in enumerate(self.servers[unit_base + unit]):
                for column, server in enumerate(row):
                    count = int(ops[unit, sub, column])
                    if count:
                        server.service_batch(start, count)

    def issue(self, unit, sub, fu_unit, latency, ready):
        row = self.servers[unit][sub]
        dispatch, fu = row[0], row[FU_COLUMN[fu_unit]]
        start = max(ready, dispatch.next_free(ready), fu.next_free(ready))
        assert dispatch.issue(start) == start and fu.issue(start) == start
        return start, start + latency * self.period

    def vt(self) -> np.ndarray:
        return np.array([[[server.busy_until for server in row]
                          for row in unit] for unit in self.servers])


def full(ops, num_units) -> np.ndarray:
    return np.broadcast_to(
        ops, (num_units, CONFIG.subcores_per_unit, ISSUE_COLUMNS))


def simt_spread(totals: np.ndarray, num_units: int, subcores: int):
    """The masked engine's exact spread, as its ``schedule`` writes it."""
    n_sub = num_units * subcores
    base, rem = np.divmod(totals, n_sub)
    return (base + (np.arange(n_sub)[:, None] < rem)).reshape(
        num_units, subcores, -1)


class TestColumns:
    def test_columns_follow_funit_order(self):
        assert ISSUE_COLUMNS == 1 + len(FUnit)
        assert list(FU_COLUMN) == list(FUnit)
        assert list(FU_COLUMN.values()) == list(range(1, ISSUE_COLUMNS))

    def test_cost_is_the_issue_server_division(self):
        bank, grid = IssueBank(CONFIG), ReferenceGrid(CONFIG)
        assert bank.cost.tolist() == [s._cost for s in grid.servers[0][0]]

    def test_non_positive_width_rejected(self):
        with pytest.raises(ConfigError, match="issue_width"):
            NDPConfig(issue_width=0)
        # the bank keeps its own guard for a config built around the check
        config = NDPConfig()
        object.__setattr__(config, "issue_width", 0)
        with pytest.raises(SimulationError):
            IssueBank(config)


class TestBulkCharge:
    def test_whole_device_with_zero_count_columns(self):
        bank, grid = IssueBank(CONFIG), ReferenceGrid(CONFIG)
        for start, ops in ((5.0, issue_ops(11, {FUnit.SALU: 7, FUnit.VLSU: 2})),
                           (2.5, issue_ops(3, {FUnit.SSFU: 3})),
                           (40.125, issue_ops(0, {FUnit.VALU: 5}))):
            bank.charge(0, CONFIG.num_units, start, ops)
            grid.charge(0, CONFIG.num_units, start, full(ops, CONFIG.num_units))
            assert np.array_equal(bank.vt, grid.vt())
        # never-charged columns kept their virtual time, as
        # ``service_batch(_, 0)`` leaves a server alone
        assert (bank.vt[:, :, FU_COLUMN[FUnit.SLSU]] == 0.0).all()
        assert (bank.vt[:, :, FU_COLUMN[FUnit.VSFU]] == 0.0).all()

    def test_partition_window_leaves_other_units_alone(self):
        bank, grid = IssueBank(CONFIG), ReferenceGrid(CONFIG)
        everywhere = issue_ops(4, {FUnit.SALU: 4})
        bank.charge(0, 8, 1.0, everywhere)
        grid.charge(0, 8, 1.0, full(everywhere, 8))
        before = bank.vt.copy()
        window = issue_ops(100, {FUnit.VALU: 60, FUnit.VLSU: 40})
        bank.charge(2, 3, 0.5, window)
        grid.charge(2, 3, 0.5, full(window, 3))
        assert np.array_equal(bank.vt, grid.vt())
        assert np.array_equal(bank.vt[:2], before[:2])
        assert np.array_equal(bank.vt[5:], before[5:])
        assert (bank.vt[2:5, :, 0] > before[2:5, :, 0]).all()

    @pytest.mark.parametrize("lane_instructions,fu_counts", [
        (1, {FUnit.SLSU: 1}),                         # one-µthread launch
        (37, {FUnit.SALU: 20, FUnit.SLSU: 9, FUnit.VLSU: 8}),
        (12 * 77 + 5, {FUnit.VALU: 12 * 30, FUnit.SALU: 12 * 40 + 11}),
    ])
    def test_simt_remainder_spread(self, lane_instructions, fu_counts):
        bank, grid = IssueBank(CONFIG), ReferenceGrid(CONFIG)
        unit_base, num_units, subcores = 1, 3, CONFIG.subcores_per_unit
        totals = issue_ops(lane_instructions, fu_counts)
        ops = simt_spread(totals, num_units, subcores)
        # every op charged exactly once, remainders one at a time from the
        # window's first sub-core
        assert np.array_equal(ops.sum(axis=(0, 1)), totals)
        flat = ops.reshape(num_units * subcores, -1)
        assert (np.diff(flat, axis=0) <= 0).all()
        assert flat.max(axis=0).tolist() == [
            -(-int(t) // (num_units * subcores)) for t in totals]
        for start in (3.0, 1.0):
            bank.charge(unit_base, num_units, start, ops)
            grid.charge(unit_base, num_units, start, ops)
            assert np.array_equal(bank.vt, grid.vt())


class TestRowView:
    def test_issue_returns_python_floats(self):
        bank = IssueBank(CONFIG)
        subcore = SubCore(bank, 0, 0)
        bank.charge(0, 1, 2.0, issue_ops(5, {FUnit.SALU: 5}))
        start, done = subcore.issue(FU_COLUMN[FUnit.SALU], 2, 0.25)
        assert type(start) is float and type(done) is float
        assert start == bank.cost.item(1) * 5 + 2.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_issues_interleaved_with_bulk_charges(self, seed):
        rng = np.random.default_rng(seed)
        bank, grid = IssueBank(CONFIG), ReferenceGrid(CONFIG)
        subcores = [[SubCore(bank, u, s)
                     for s in range(CONFIG.subcores_per_unit)]
                    for u in range(CONFIG.num_units)]
        fus = list(FUnit)
        now = 0.0
        for _ in range(400):
            now += float(rng.integers(0, 8)) * 0.37
            kind = rng.integers(0, 4)
            if kind <= 1:       # the interpreter's per-instruction issue
                u = int(rng.integers(CONFIG.num_units))
                s = int(rng.integers(CONFIG.subcores_per_unit))
                fu = fus[rng.integers(len(fus))]
                latency = int(rng.integers(1, 9))
                # threads are ready at arbitrary times, also in the past
                ready = now - float(rng.integers(0, 3))
                assert subcores[u][s].issue(
                    FU_COLUMN[fu], latency, ready) == grid.issue(
                    u, s, fu, latency, ready)
            elif kind == 2:     # the point engine's per-lane charge
                u = int(rng.integers(CONFIG.num_units))
                fu_ops = {fus[i]: int(rng.integers(0, 5))
                          for i in rng.choice(len(fus), 3, replace=False)}
                dispatch = int(rng.integers(0, 12))
                lane = np.zeros((1, CONFIG.subcores_per_unit, ISSUE_COLUMNS),
                                dtype=np.int64)
                lane[0, 0] = issue_ops(dispatch, fu_ops)
                subcores[u][0].service_batch(now, lane[0, 0].tolist())
                grid.charge(u, 1, now, lane)
            else:               # a fast-engine launch on a unit window
                base = int(rng.integers(CONFIG.num_units))
                count = int(rng.integers(1, CONFIG.num_units - base + 1))
                totals = issue_ops(
                    int(rng.integers(0, 500)),
                    {fu: int(rng.integers(0, 200)) for fu in fus[::2]})
                ops = simt_spread(totals, count, CONFIG.subcores_per_unit)
                bank.charge(base, count, now, ops)
                grid.charge(base, count, now, ops)
            assert np.array_equal(bank.vt, grid.vt())


class TestArgumentBlock:
    def test_block_lands_in_the_partition_window_only(self):
        platform = make_cluster_platform(num_devices=1,
                                         partitions="first:1,second:3")
        cluster = platform.runtime
        device = cluster.runtimes[0].device
        first, second = device.partitions
        assert 0 < first.num_units == second.unit_base
        n = 256
        a = np.arange(n, dtype=np.int64)
        addr_a = cluster.alloc_array(a)
        addr_b = cluster.alloc_array(a)
        addr_c = cluster.alloc(a.nbytes)
        kid = cluster.register_kernel(VECADD, name="args")
        handle = cluster.runtimes[0].launch_async(
            kid, addr_a, addr_a + a.nbytes, args=pack_args(addr_b, addr_c),
            partition=1)
        cluster.sim.run()
        assert handle.call.value > 0
        assert np.array_equal(cluster.read_array(addr_c, np.int64, n), 2 * a)

        ndp = device.config.ndp
        # the block as the controller received it (the host pads it)
        args = handle.instance.args
        slot = handle.call.value % ndp.max_concurrent_kernels
        offset = ndp.scratchpad_bytes - (slot + 1) * ARG_SLOT_BYTES
        expected = np.zeros(ndp.scratchpad_bytes, dtype=np.uint8)
        expected[offset:offset + len(args)] = np.frombuffer(args, np.uint8)
        inside = range(second.unit_base,
                       second.unit_base + second.num_units)
        for unit in device.units:
            # the unit's scratchpad *is* its row of the device array
            row = device.scratchpads[unit.index]
            assert np.shares_memory(row, unit.scratchpad._data)
            launched = unit.index in inside
            assert np.array_equal(row, expected if launched else 0 * expected)
            prefix = f"unit{unit.index}.spad"
            assert device.stats.get(f"{prefix}.writes") == launched
            # besides the block, VECADD's µthreads each read two 8 B
            # pointers out of it
            assert device.stats.get(f"{prefix}.bytes") == (
                launched * len(args) + 8 * device.stats.get(f"{prefix}.reads"))
