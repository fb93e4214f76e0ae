"""Tests for the energy model, area model (§IV-F) and analysis helpers."""

import pytest

from repro.analysis.roofline import fig1a_table, max_slowdown, mean_slowdown
from repro.analysis.speedup import SpeedupRow, SpeedupTable
from repro.area import model as area_model
from repro.area.model import (
    alu_area_reduction_vs_sm,
    iso_area_sm_count,
    m2ndp_total_area,
    ndp_unit_area,
    register_file_reduction_vs_sm,
)
from repro.config import default_system, gpu_ndp_config
from repro.energy.model import EnergyModel
from repro.experiments import fig06, fig10, fig15
from repro.host.gpu import make_gpu_ndp
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class TestAreaModel:
    def test_unit_area_matches_paper(self):
        """Paper §IV-F: one NDP unit is 0.83 mm²."""
        assert ndp_unit_area().total_mm2 == pytest.approx(0.83, rel=0.1)

    def test_register_file_part(self):
        parts = ndp_unit_area().parts
        assert parts["register_file"] == pytest.approx(0.25, rel=0.01)

    def test_l1_scratchpad_part(self):
        parts = ndp_unit_area().parts
        assert parts["l1_scratchpad"] == pytest.approx(0.45, rel=0.01)

    def test_total_area_matches_paper(self):
        """Paper: 32 NDP units cost 26.4 mm²."""
        assert m2ndp_total_area() == pytest.approx(26.4, rel=0.1)

    def test_iso_area_sm_count(self):
        """Paper: the M2NDP budget fits 16.2 Ampere SMs."""
        assert iso_area_sm_count() == pytest.approx(16.2, rel=0.1)

    def test_iso_area_figures_read_the_area_model(self, monkeypatch):
        """fig6a, fig10c and fig15 give GPU-NDP(Iso-Area) the SM count
        the area model derives, and fig15 charges its energy for it."""
        sms = 12.5
        monkeypatch.setattr(area_model, "iso_area_sm_count", lambda: sms)
        configs, energy_sms = [], []
        charge = EnergyModel.comparator_run

        def make(sim, system, num_sms):
            device = make_gpu_ndp(sim, system, num_sms)
            configs.append(device.config)
            return device

        def comparator_run(model, name, *args):
            if name == "gpu_ndp":
                energy_sms.append(args[-1])
            return charge(model, name, *args)

        monkeypatch.setattr(EnergyModel, "comparator_run", comparator_run)
        for module in (fig06, fig10):
            monkeypatch.setattr(module, "make_gpu_ndp", make)
        fig06.run_fig6a("tiny")
        fig10._gpu_configs(default_system())["gpu_ndp_iso_area"](Simulator())
        fig15.run_fig15_gpu("tiny", workloads=("SPMV",))
        # fig6a's three TB sizes, fig10c's config, fig15's Iso-Area run
        assert configs == [gpu_ndp_config(sms)] * 5
        assert energy_sms == [sms]

    def test_rf_reduction_81_percent(self):
        assert register_file_reduction_vs_sm() == pytest.approx(0.81, abs=0.02)

    def test_alu_reduction_69_percent(self):
        assert alu_area_reduction_vs_sm() == pytest.approx(0.69, abs=0.06)


class TestEnergyModel:
    def _ndp_stats(self):
        stats = StatsRegistry()
        stats.add("ndp.instructions", 1e6)
        stats.add("cxl_dram.bytes", 64e6)
        stats.add("ndp.spad_traffic_bytes", 1e6)
        return stats

    def test_ndp_cheaper_than_host_cpu(self):
        model = EnergyModel()
        stats = self._ndp_stats()
        ndp = model.ndp_run(stats, runtime_ns=200_000.0)
        # baseline moves the same data over the link, runs ~50x longer
        cpu = model.comparator_run("cpu", bytes_moved=64e6,
                                   instructions=16e6, runtime_ns=10_000_000.0)
        assert ndp.total_j < cpu.total_j
        reduction = 1.0 - ndp.total_j / cpu.total_j
        assert reduction > 0.5   # paper: 83.9% average for OLAP

    def test_static_energy_scales_with_runtime(self):
        model = EnergyModel()
        stats = self._ndp_stats()
        short = model.ndp_run(stats, runtime_ns=1e5)
        long = model.ndp_run(stats, runtime_ns=1e6)
        assert long.static_j == pytest.approx(10 * short.static_j)

    def test_perf_per_energy(self):
        model = EnergyModel()
        breakdown = model.ndp_run(self._ndp_stats(), runtime_ns=1e5)
        assert breakdown.perf_per_energy(1e5) > 0

    def test_gpu_ndp_static_scales_with_sms(self):
        model = EnergyModel()
        small = model.comparator_run("gpu_ndp", 64e6, 1e6, 1e6, num_sms=8)
        big = model.comparator_run("gpu_ndp", 64e6, 1e6, 1e6, num_sms=128)
        assert big.static_j > small.static_j


class TestRoofline:
    def test_all_workloads_slower_on_cxl(self):
        for row in fig1a_table():
            assert row["slowdown"] > 1.0

    def test_paper_range(self):
        """Paper Fig 1a: up to 9.9x slowdown, 6.3x average."""
        assert max_slowdown() == pytest.approx(9.9, rel=0.15)
        assert mean_slowdown() == pytest.approx(6.3, rel=0.2)


class TestSpeedupTable:
    def test_row_speedups(self):
        row = SpeedupRow("w", baseline_ns=100.0,
                         config_ns={"a": 50.0, "b": 25.0})
        assert row.speedup("a") == 2.0
        assert row.speedups() == {"a": 2.0, "b": 4.0}

    def test_gmean(self):
        table = SpeedupTable("t")
        table.add(SpeedupRow("w1", 100.0, {"a": 50.0}))
        table.add(SpeedupRow("w2", 100.0, {"a": 12.5}))
        assert table.gmean("a") == pytest.approx(4.0)
