"""Tests for the Table IV configuration presets."""

import ast
from pathlib import Path

import pytest

import repro
from repro.config import (
    COMPARATORS,
    CXLConfig,
    GPUConfig,
    NDPConfig,
    SystemConfig,
    default_system,
    gpu_ndp_config,
    hbm2_gpu_memory,
    lpddr5_cxl_dram,
    memory_side_l2_config,
    ndp_l1d_config,
)
from repro.errors import ConfigError
from repro.host.gpu import make_gpu_ndp
from repro.sim.engine import Simulator


class TestDRAMPresets:
    def test_lpddr5_table_iv(self):
        dram = lpddr5_cxl_dram()
        assert dram.channels == 32
        assert dram.total_bw_bytes_per_ns == pytest.approx(409.6)
        assert dram.access_granularity == 32
        assert dram.capacity_bytes == 256 << 30
        t = dram.timing
        assert (t.t_rc, t.t_rcd, t.t_cl, t.t_rp) == (48, 15, 20, 15)

    def test_hbm2_bandwidth(self):
        assert hbm2_gpu_memory().total_bw_bytes_per_ns == pytest.approx(1024.0)

    def test_timing_validation(self):
        from repro.config import DRAMTiming
        with pytest.raises(ConfigError):
            DRAMTiming(tck_ns=1.0, t_rc=10, t_rcd=20, t_cl=5, t_rp=20)


class TestNDPConfig:
    def test_table_iv_defaults(self):
        ndp = NDPConfig()
        assert ndp.num_units == 32
        assert ndp.subcores_per_unit == 4
        assert ndp.uthread_slots_per_subcore == 16
        assert (ndp.num_units * ndp.subcores_per_unit
                * ndp.uthread_slots_per_subcore) == 2048
        assert ndp.regfile_bytes_per_unit == 48 << 10
        assert ndp.vector_bytes == 32
        assert ndp.max_concurrent_kernels == 48

    def test_clock(self):
        assert NDPConfig().clock.period_ns == 0.5

    def test_rf_split_across_subcores(self):
        assert NDPConfig().regfile_bytes_per_subcore == 12 << 10


class TestGPUConfig:
    def test_warps_per_sm(self):
        assert GPUConfig().max_warps_per_sm == 48

    def test_gpu_ndp_fractional_sms(self):
        config = gpu_ndp_config(16.2)
        assert config.num_sms == 16
        assert config.freq_ghz == pytest.approx(2.0 * 16.2 / 16)

    def test_gpu_ndp_reads_the_comparator_row_at_call_time(self,
                                                           monkeypatch):
        monkeypatch.setitem(COMPARATORS["gpu_ndp"], "freq_ghz", 1.0)
        assert gpu_ndp_config(16.2).freq_ghz == pytest.approx(16.2 / 16)
        device = make_gpu_ndp(Simulator(), default_system(), 16.2)
        assert device.config.freq_ghz == pytest.approx(16.2 / 16)

    def test_gpu_ndp_rejects_zero(self):
        with pytest.raises(ConfigError):
            gpu_ndp_config(0.4)


class TestCPUConfig:
    def test_defaults(self):
        cpu = COMPARATORS["cpu"]
        assert cpu["cores"] == 64
        assert cpu["mlp"] == 10

    def test_cpu_ndp_uses_32_cores(self):
        assert COMPARATORS["cpu_ndp"]["cores"] == 32


class TestCacheConfigs:
    def test_l2_table_iv(self):
        l2 = memory_side_l2_config()
        assert l2.size_bytes == 4 << 20
        assert l2.ways == 16
        assert (l2.line_bytes, l2.sector_bytes) == (128, 32)

    def test_l1d_table_iv(self):
        l1 = ndp_l1d_config()
        assert l1.size_bytes == 128 << 10


class TestSystemConfig:
    def test_default_bundle(self):
        system = default_system()
        assert system.cxl.load_to_use_ns == 150.0
        assert system.cxl_dram.name == "LPDDR5-CXL"

    def test_with_ltu(self):
        system = default_system().with_ltu(300.0)
        assert system.cxl.load_to_use_ns == 300.0
        # other components untouched
        assert system.ndp.num_units == 32

    def test_with_ndp_freq(self):
        system = default_system().with_ndp_freq(1.0)
        assert system.ndp.freq_ghz == 1.0

    def test_immutability(self):
        system = default_system()
        with pytest.raises(Exception):
            system.cxl.load_to_use_ns = 999.0


def test_every_config_field_has_a_reader():
    """Each field of a ``config.py`` dataclass is read as ``.name``
    somewhere in ``src/repro`` outside its class's ``__post_init__`` (a
    ``config.py`` property counts): a field nothing reads moves no
    result."""
    package = Path(repro.__file__).parent
    classes = [node for node in ast.parse(
        (package / "config.py").read_text()).body
        if isinstance(node, ast.ClassDef)]
    reads: dict[str, set[tuple]] = {}
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                reads.setdefault(node.attr, set()).add(
                    (path, node.lineno, node.col_offset))
    unread = []
    for cls in classes:
        checks = {(package / "config.py", node.lineno, node.col_offset)
                  for method in cls.body
                  if isinstance(method, ast.FunctionDef)
                  and method.name == "__post_init__"
                  for node in ast.walk(method)
                  if isinstance(node, ast.Attribute)}
        unread += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign)
                   and not reads.get(stmt.target.id, set()) - checks]
    assert unread == []
