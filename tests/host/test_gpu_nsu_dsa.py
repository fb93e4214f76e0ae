"""Tests for the GPU SM model, NSU baseline, and domain-specific PEs."""

import pytest

from repro.config import COMPARATORS, GPUConfig, SystemConfig, lpddr5_cxl_dram
from repro.host.dsa import ALL_PES, CMS, CXL_PNM
from repro.host.gpu import (
    GPUDevice,
    GPUKernelSpec,
    GPUMemorySystem,
    WarpProfile,
    make_gpu_baseline,
    make_gpu_ndp,
)
from repro.host.nsu import NSUModel, NSUWorkload
from repro.mem.dram import DRAMModel
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


def uniform_spec(total_warps=64, warps_per_tb=4, instructions=40,
                 mem_ops=4, sectors=4, **kwargs) -> GPUKernelSpec:
    def profile(_):
        return WarpProfile(instructions=instructions,
                           mem_ops=[(sectors, False)] * mem_ops)

    return GPUKernelSpec(name="t", total_warps=total_warps,
                         warps_per_tb=warps_per_tb, warp_profile=profile,
                         **kwargs)


def run_kernel(device: GPUDevice, spec: GPUKernelSpec) -> float:
    result = device.launch(spec, at_ns=0.0)
    device.sim.run()
    return result.complete_ns - result.start_ns


class TestGPUDevice:
    def test_kernel_completes(self):
        sim = Simulator()
        gpu = make_gpu_ndp(sim, SystemConfig(), 8)
        assert run_kernel(gpu, uniform_spec()) > 0

    def test_more_sms_not_slower_for_wide_kernels(self):
        times = {}
        for sms in (8, 32):
            sim = Simulator()
            gpu = make_gpu_ndp(sim, SystemConfig(), sms)
            times[sms] = run_kernel(gpu, uniform_spec(total_warps=2048))
        assert times[32] <= times[8]

    def test_tb_granularity_limits_occupancy(self):
        """A straggler warp holds its whole TB's slots (§III-D A2)."""
        sim = Simulator()
        gpu = make_gpu_ndp(sim, SystemConfig(), 1)

        def skewed(warp):
            if warp % 8 == 0:
                return WarpProfile(instructions=4000, mem_ops=[(4, False)] * 40)
            return WarpProfile(instructions=10, mem_ops=[(4, False)])

        spec = GPUKernelSpec(name="skew", total_warps=256, warps_per_tb=8,
                             warp_profile=skewed)
        gpu.launch(spec, at_ns=0.0)
        sim.run()
        sm = gpu.sms[0]
        mean = sm.sampler.time_weighted_mean(0.0, sim.now)
        assert mean < 0.95   # slots wasted waiting for stragglers

    def test_shared_memory_limits_tbs(self):
        config = GPUConfig(num_sms=1)
        sim = Simulator()
        stats = StatsRegistry()
        dram = DRAMModel(lpddr5_cxl_dram(), stats)
        gpu = GPUDevice(sim, config, GPUMemorySystem(dram), stats,
                        launch_overhead_ns=COMPARATORS["gpu"]["launch_ns"])
        spec = uniform_spec(total_warps=64, warps_per_tb=4,
                            shared_mem_per_tb=config.shared_mem_bytes_per_sm)
        # only one TB fits at a time
        assert gpu.sms[0].can_host_tb(spec)
        gpu.sms[0].admit_tb(spec, 4, 0.0)
        assert not gpu.sms[0].can_host_tb(spec)

    def test_register_file_limits_warps(self):
        config = GPUConfig(num_sms=1)
        spec = uniform_spec(warps_per_tb=8, regs_per_thread=256)
        sim = Simulator()
        stats = StatsRegistry()
        dram = DRAMModel(lpddr5_cxl_dram(), stats)
        gpu = GPUDevice(sim, config, GPUMemorySystem(dram), stats,
                        launch_overhead_ns=COMPARATORS["gpu"]["launch_ns"])
        sm = gpu.sms[0]
        admitted = 0
        while sm.can_host_tb(spec):
            sm.admit_tb(spec, 8, 0.0)
            admitted += 1
        # 256 regs * 4 B * 256 threads = 256 KB per TB: exactly one fits
        assert admitted == 1

    def test_cxl_baseline_slower_than_internal(self):
        spec = uniform_spec(total_warps=512, mem_ops=16)
        sim1 = Simulator()
        baseline = make_gpu_baseline(sim1, SystemConfig())
        base_ns = run_kernel(baseline, spec)
        sim2 = Simulator()
        internal = make_gpu_ndp(sim2, SystemConfig(), 82, freq_ghz=1.695)
        internal_ns = run_kernel(internal, spec)
        assert base_ns > internal_ns

    @pytest.mark.parametrize("ltu_ns, read_ns", [
        (150.0, 95.375), (300.0, 245.375), (600.0, 545.375)])
    def test_load_to_use_is_charged_once(self, ltu_ns, read_ns):
        # SystemConfig.with_ltu lengthens the link's round trip; the GPU's
        # memory path adds nothing on top: each 150 ns of LtU is 150 ns
        gpu = make_gpu_baseline(Simulator(), SystemConfig().with_ltu(ltu_ns))
        assert gpu.memsys.access(0.0, 1, is_write=False) == \
            pytest.approx(read_ns, abs=1e-9)

    def test_mlp_speeds_up_streaming(self):
        def spec_with_mlp(mlp):
            def profile(_):
                return WarpProfile(instructions=40,
                                   mem_ops=[(4, False)] * 16, mlp=mlp)
            return GPUKernelSpec(name="m", total_warps=16, warps_per_tb=4,
                                 warp_profile=profile)
        times = {}
        for mlp in (1, 8):
            sim = Simulator()
            gpu = make_gpu_ndp(sim, SystemConfig(), 8)
            times[mlp] = run_kernel(gpu, spec_with_mlp(mlp))
        assert times[8] < times[1]

    def test_fractional_sm_count(self):
        sim = Simulator()
        gpu = make_gpu_ndp(sim, SystemConfig(), 16.2)
        assert len(gpu.sms) == 16
        assert gpu.config.freq_ghz == pytest.approx(2.0 * 16.2 / 16)


class TestNSU:
    def test_command_traffic_dominates(self):
        nsu = NSUModel()
        # 1M accesses of 32 B: command bytes ≈ data bytes => link-bound
        workload = NSUWorkload(ndp_accesses=1 << 20,
                               read_bytes=32 << 20, result_bytes=0)
        runtime = nsu.runtime_ns(workload)
        link_time = ((1 << 20) * COMPARATORS["nsu"]["command_bytes"]
                     / SystemConfig().cxl.bw_per_dir_bytes_per_ns)
        assert runtime >= link_time

    def test_worse_than_internal_execution(self):
        nsu = NSUModel()
        workload = NSUWorkload(ndp_accesses=1 << 20,
                               read_bytes=32 << 20, result_bytes=0)
        internal_only = ((32 << 20)
                         / SystemConfig().cxl_dram.total_bw_bytes_per_ns)
        assert nsu.runtime_ns(workload) > internal_only


class TestDomainSpecificPEs:
    def test_catalog_covers_paper_designs(self):
        names = {pe.name for pe in ALL_PES}
        assert names == {"CXL-ANNS", "CMS", "RecNMP", "CXL-PNM"}

    def test_workload_dispatch(self):
        assert "knn" in CMS.workloads
        assert "llm" in CXL_PNM.workloads
        assert not any("unknown-thing" in pe.workloads for pe in ALL_PES)

    def test_runtime_scales_with_bytes(self):
        one = CMS.runtime_ns(1 << 20)
        two = CMS.runtime_ns(2 << 20)
        assert two == pytest.approx(2 * one)
        assert one == pytest.approx(
            (1 << 20) / (SystemConfig().cxl_dram.total_bw_bytes_per_ns
                         * CMS.streaming_efficiency))

    def test_efficiencies_below_unity(self):
        assert all(0.5 < pe.streaming_efficiency <= 1.0 for pe in ALL_PES)

    def test_runtime_reads_the_comparator_row_at_call_time(self,
                                                           monkeypatch):
        # a perturbed COMPARATORS value moves the PE it belongs to
        before = CMS.runtime_ns(1 << 20)
        efficiency = COMPARATORS["CMS"]["streaming_efficiency"]
        monkeypatch.setitem(COMPARATORS["CMS"], "streaming_efficiency",
                            efficiency / 2)
        assert CMS.runtime_ns(1 << 20) == pytest.approx(2 * before)
        assert CXL_PNM.runtime_ns(1 << 20) < CMS.runtime_ns(1 << 20)
