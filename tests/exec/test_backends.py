"""Execution-backend tests: selection, cross-equivalence, fallback.

The batched backend must produce *byte-identical* functional results to
the interpreter on the replayable kernels (vecadd, gemv, the OLAP filter)
and silently fall back to the interpreter on everything it cannot replay.
How far its launch timing is from the interpreter's is the ``engines``
experiment's headline, gated per kernel in ``FIDELITY.json``.
"""

import numpy as np
import pytest

from repro.cluster import make_cluster_platform
from repro.errors import ConfigError
from repro.exec import BatchedBackend, InterpreterBackend, make_backend
from repro.exec.simt import LaunchTail
from repro.host.api import pack_args
from repro.kernels.gemv import GEMV_F32
from repro.kernels.olap import EVAL_RANGE_I32, MASK_AND
from repro.kernels.reduction import REDUCE_SUM_I64
from repro.kernels.vecadd import VECADD, VECADD_F32
from repro.ndp.device import M2NDPDevice
from repro.sim.engine import Simulator
from repro.workloads import olap
from repro.workloads.base import make_platform


def _platforms():
    return make_platform(backend="interpreter"), make_platform(backend="batched")


def _batched_stats(platform):
    return (platform.stats.get("exec.batched_launches"),
            platform.stats.get("exec.batched_fallbacks"))


class TestSelection:
    def test_default_is_batched(self):
        assert isinstance(make_platform().device.backend, BatchedBackend)
        assert isinstance(make_cluster_platform().device.backend,
                          BatchedBackend)
        assert isinstance(M2NDPDevice(Simulator()).backend, BatchedBackend)

    def test_batched_selected_by_name(self):
        platform = make_platform(backend="batched")
        assert isinstance(platform.device.backend, BatchedBackend)

    def test_env_var_sets_default(self):
        # the argument is the one way to choose: both factories pass it on
        for platform in (make_platform(backend="interpreter"),
                         make_cluster_platform(backend="interpreter")):
            assert not isinstance(platform.device.backend, BatchedBackend)
            assert isinstance(platform.device.backend, InterpreterBackend)

    def test_explicit_backend_beats_env_var(self, monkeypatch):
        # A set variable moves nothing: neither a pinned backend nor the
        # default.
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "interpreter")
        for platform in (make_platform(backend="batched"), make_platform()):
            assert isinstance(platform.device.backend, BatchedBackend)

    def test_bare_device_honours_env_var(self):
        # the argument is checked where the backend is made, not only in
        # the platform factories
        bare = M2NDPDevice(Simulator(), backend="interpreter")
        assert not isinstance(bare.backend, BatchedBackend)
        pinned = M2NDPDevice(Simulator(), backend="batched")
        assert isinstance(pinned.backend, BatchedBackend)
        with pytest.raises(ConfigError, match="'jit' \\(from backend\\)"):
            M2NDPDevice(Simulator(), backend="jit")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            make_platform(backend="jit")

    def test_registry_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_backend("nope", device=None)


class TestVecaddEquivalence:
    N = 4096

    def _run(self, platform, source, dtype, mult):
        runtime = platform.runtime
        n = self.N
        a = (np.arange(n) * mult).astype(dtype)
        b = (np.arange(n)[::-1] * mult).astype(dtype)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(b)
        addr_c = runtime.alloc(a.nbytes)
        runtime.run_kernel(
            source, addr_a, addr_a + a.nbytes, args=pack_args(addr_b, addr_c)
        )
        return runtime.read_array(addr_c, dtype, n)

    def test_int64_rows_match(self):
        interp, batched = _platforms()
        out_i = self._run(interp, VECADD, np.int64, 7)
        out_b = self._run(batched, VECADD, np.int64, 7)
        assert np.array_equal(out_i, out_b)
        assert out_i[5] == 5 * 7 + (self.N - 6) * 7
        assert _batched_stats(batched) == (1, 0)

    def test_f32_bitwise_match(self):
        interp, batched = _platforms()
        out_i = self._run(interp, VECADD_F32, np.float32, 0.25)
        out_b = self._run(batched, VECADD_F32, np.float32, 0.25)
        assert np.array_equal(out_i.view(np.uint32), out_b.view(np.uint32))

    def test_dram_traffic_matches(self):
        interp, batched = _platforms()
        self._run(interp, VECADD, np.int64, 3)
        self._run(batched, VECADD, np.int64, 3)
        assert (interp.stats.get("cxl_dram.bytes")
                == batched.stats.get("cxl_dram.bytes"))
        assert (interp.stats.get("ndp.global_traffic_bytes")
                == batched.stats.get("ndp.global_traffic_bytes"))
        assert (interp.stats.get("ndp.instructions")
                == batched.stats.get("ndp.instructions"))


class TestGemvEquivalence:
    def _run(self, platform, rows=512, dim=64):
        gen = np.random.default_rng(7)
        weights = gen.normal(0, 0.1, (rows, dim)).astype(np.float32)
        x = gen.normal(0, 1, dim).astype(np.float32)
        runtime = platform.runtime
        w_addr = runtime.alloc_array(weights)
        x_addr = runtime.alloc_array(x)
        out_addr = runtime.alloc(rows * 4)
        runtime.run_kernel(
            GEMV_F32, out_addr, out_addr + rows * 4,
            args=pack_args(w_addr, x_addr, dim), stride=4,
        )
        return runtime.read_array(out_addr, np.float32, rows)

    def test_bitwise_outputs(self):
        interp, batched = _platforms()
        out_i = self._run(interp)
        out_b = self._run(batched)
        # The batched reduction accumulates in the scalar executor's exact
        # element order, so even float results are bit-identical.
        assert np.array_equal(out_i.view(np.uint32), out_b.view(np.uint32))
        assert _batched_stats(batched) == (1, 0)


class TestOlapEquivalence:
    @pytest.mark.parametrize("query", ["q6", "q14", "q1_2"])
    def test_rows_match(self, query):
        rows = 1 << 13
        results = {}
        for backend in ("interpreter", "batched"):
            data = olap.generate(query, rows)
            platform = make_platform(backend=backend)
            run = olap.run_ndp_evaluate(platform, data)
            results[backend] = (run, platform)
        run_i, _ = results["interpreter"]
        run_b, platform_b = results["batched"]
        assert run_i.correct and run_b.correct
        assert run_i.dram_bytes == run_b.dram_bytes
        launches, fallbacks = _batched_stats(platform_b)
        assert launches == run_b.instance_count
        assert fallbacks == 0

    def test_mask_and_aliasing_is_replayed(self):
        # MASK_AND reads the pool region and writes over it (the combined
        # mask lands on mask A); the write buffering must preserve the
        # read-before-write program order.
        rows = 4096
        outs = {}
        for backend in ("interpreter", "batched"):
            platform = make_platform(backend=backend)
            runtime = platform.runtime
            gen = np.random.default_rng(3)
            mask_a = gen.integers(0, 2, rows).astype(np.uint8)
            mask_b = gen.integers(0, 2, rows).astype(np.uint8)
            addr_a = runtime.alloc_array(mask_a)
            addr_b = runtime.alloc_array(mask_b)
            runtime.run_kernel(MASK_AND, addr_a, addr_a + rows,
                               args=pack_args(addr_b, addr_a))
            outs[backend] = runtime.read_array(addr_a, np.uint8, rows)
            expected = mask_a & mask_b
            assert np.array_equal(outs[backend], expected)
        assert np.array_equal(outs["interpreter"], outs["batched"])


#: Kernel with a genuine read-after-write race through memory: every
#: µthread stores to its slice then immediately loads the stored bytes
#: back — the SIMT engine buffers stores to the phase barrier, so it must
#: hand the launch to the interpreter rather than read stale data.
RAW_KERNEL = """
.body
    ld      x4, 0(x3)        // output base
    add     x4, x4, x2
    sd      x2, 0(x4)
    ld      x5, 0(x4)        // RAW via memory
    sd      x5, 8(x4)
    ret
"""


class TestSimtRouting:
    def test_amo_phase_kernel_runs_on_simt(self):
        # REDUCE_SUM uses .init/.final sections, scratchpad state and
        # amoadd — the whole former fallback bundle in one kernel.
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        n = 2048
        values = np.arange(n, dtype=np.int64)
        addr = runtime.alloc_array(values)
        out = runtime.alloc(8)
        runtime.run_kernel(REDUCE_SUM_I64, addr, addr + n * 8,
                           args=pack_args(out), scratchpad_bytes=64)
        assert runtime.read_array(out, np.int64, 1)[0] == values.sum()
        assert _batched_stats(platform) == (0, 0)
        assert platform.stats.get("exec.simt_launches") == 1

    def test_small_launch_runs_on_simt(self):
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        n = 32                      # 8 µthreads: below the batch threshold
        a = np.arange(n, dtype=np.int64)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(a)
        addr_c = runtime.alloc(n * 8)
        runtime.run_kernel(VECADD, addr_a, addr_a + n * 8,
                           args=pack_args(addr_b, addr_c))
        assert np.array_equal(runtime.read_array(addr_c, np.int64, n), 2 * a)
        assert _batched_stats(platform) == (0, 0)
        assert platform.stats.get("exec.simt_launches") == 1

    def test_divergent_branches_run_on_simt(self):
        # Threads branch on their own offset parity; the uniform lockstep
        # walk degrades to the masked engine, which must produce exactly
        # the interpreter's bytes.
        source = """
        .body
            ld      x4, 0(x3)        // output base
            add     x4, x4, x2
            srli    x5, x2, 5        // slice index
            andi    x6, x5, 1
            bnez    x6, odd
            li      x7, 111
            sd      x7, 0(x4)
            ret
        odd:
            li      x7, 222
            sd      x7, 0(x4)
            ret
        """
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        n_slices = 256
        pool = runtime.alloc(n_slices * 32)
        out = runtime.alloc(n_slices * 32)
        runtime.run_kernel(source, pool, pool + n_slices * 32,
                           args=pack_args(out))
        produced = runtime.read_array(out, np.int64, n_slices * 4)
        expected = np.zeros(n_slices * 4, dtype=np.int64)
        expected[::8] = 111          # even slices write at offset 0 of 32B
        expected[4::8] = 222
        assert np.array_equal(produced, expected)
        assert _batched_stats(platform) == (0, 0)
        assert platform.stats.get("exec.simt_launches") == 1
        assert platform.stats.get(
            "exec.fallback_reason.divergent", 0.0) == 0


class TestFallback:
    def test_contended_amo_old_value_falls_back(self):
        # Every µthread amoadds to one shared cell AND stores the returned
        # old value: those olds depend on the interpreter's scheduling, so
        # the SIMT engine must hand the launch back instead of inventing
        # a lane-ordered history.
        source = """
        .body
            ld      x4, 0(x3)        // shared accumulator address
            ld      x5, 8(x3)        // output base
            add     x5, x5, x2
            li      x6, 1
            amoadd.d x7, x6, (x4)
            sd      x7, 0(x5)        // old value escapes to memory
            ret
        """
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        n_slices = 128
        accum = runtime.alloc(8)
        out = runtime.alloc(n_slices * 32)
        pool = runtime.alloc(n_slices * 32)
        runtime.run_kernel(source, pool, pool + n_slices * 32,
                           args=pack_args(accum, out))
        total = runtime.read_array(accum, np.int64, 1)[0]
        olds = np.sort(runtime.read_array(out, np.int64, n_slices * 4)[::4])
        assert total == n_slices
        # the interpreter's olds are a permutation of 0..n-1
        assert np.array_equal(olds, np.arange(n_slices))
        launches, fallbacks = _batched_stats(platform)
        assert launches == 0
        assert fallbacks == 1
        assert platform.stats.get("exec.fallback_reason.atomic") == 1

    def test_raw_hazard_falls_back(self):
        # The interpreter fallback must still produce the right result,
        # and the aborted walk must not have leaked partial stores.
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        n_slices = 128
        pool = runtime.alloc(n_slices * 32)
        out = runtime.alloc(n_slices * 32)
        runtime.run_kernel(RAW_KERNEL, pool, pool + n_slices * 32,
                           args=pack_args(out))
        produced = runtime.read_array(out, np.int64, n_slices * 4)
        offsets = np.arange(n_slices, dtype=np.int64) * 32
        assert np.array_equal(produced[::4], offsets)
        assert np.array_equal(produced[1::4], offsets)
        launches, fallbacks = _batched_stats(platform)
        assert launches == 0
        assert fallbacks == 1
        assert platform.stats.get("exec.fallback_reason.raw") == 1

    def test_translation_fault_falls_back(self):
        # Loads through an unmapped pointer cannot be vectorized (the
        # walk would need the interpreter's per-access fault semantics).
        source = """
        .body
            li      x4, 0x7F0000000
            ld      x5, 0(x4)       // unmapped -> translation fault
            sd      x5, 0(x1)
            ret
        """
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        pool = runtime.alloc(128 * 32)
        from repro.errors import TranslationFault
        with pytest.raises(TranslationFault):
            runtime.run_kernel(source, pool, pool + 128 * 32)
        launches, fallbacks = _batched_stats(platform)
        assert launches == 0
        assert fallbacks == 1
        assert platform.stats.get("exec.fallback_reason.fault") == 1


class TestConcurrentLaunches:
    def test_fallback_launch_does_not_reexecute_batched_one(self):
        # Regression: a fast-path launch must be invisible to the
        # interpreter's fill scan while its completion is pending — a
        # concurrent fallback launch used to re-spawn all of its µthreads.
        platform = make_platform(backend="batched")
        runtime = platform.runtime
        n = 4096
        a = np.arange(n, dtype=np.int64)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(a)
        addr_c = runtime.alloc(n * 8)
        big = runtime.register_kernel(VECADD, name="big")
        raw = runtime.register_kernel(RAW_KERNEL, name="raw")

        handle_big = runtime.launch_async(
            big, addr_a, addr_a + n * 8, args=pack_args(addr_b, addr_c),
            sync=False,
        )
        # 48 µthreads with a RAW hazard: too wide for the point engine
        # (> lane width), so it runs on the interpreter and triggers
        # fill_all_units while the batched launch is in flight
        addr_d = runtime.alloc(48 * 32)
        handle_small = runtime.launch_async(
            raw, addr_a, addr_a + 48 * 32, args=pack_args(addr_d),
            sync=False,
        )
        runtime.sim.run()
        # The interpreter launch issues behind the batched launch's bulk
        # sub-core charge — the one place that charge is observable (the
        # raw launch completes at 455.375 without it).
        assert handle_big.complete_ns == 788.1092122395858
        assert handle_small.complete_ns == 463.25
        assert np.array_equal(runtime.read_array(addr_c, np.int64, n), 2 * a)
        expected_threads = n * 8 // 32 + 48
        assert platform.stats.get("ndp.uthreads_spawned") == expected_threads
        assert platform.stats.get("ndp.uthreads_finished") == expected_threads
        assert _batched_stats(platform) == (1, 1)

    def test_occupancy_samples_equal_a_record_per_unit(self, monkeypatch):
        # LaunchTail.occupy records on every unit of its window; every
        # unit's series must read back as if each sampler had ``record``ed
        # for itself — including the monotonic clamp, hit when a launch
        # starts before a multi-phase launch's (future) phase samples.
        def run(platform):
            runtime = platform.runtime
            n = 4096
            a = np.arange(n, dtype=np.int64)
            addr_a = runtime.alloc_array(a)
            addr_b = runtime.alloc_array(a)
            addr_c = runtime.alloc(n * 8)
            addr_d = runtime.alloc(48 * 32)
            out = runtime.alloc(8)
            big = runtime.register_kernel(VECADD, name="big")
            raw = runtime.register_kernel(RAW_KERNEL, name="raw")
            red = runtime.register_kernel(REDUCE_SUM_I64, scratchpad_bytes=64,
                                          name="reduce")
            for _ in range(2):
                now = runtime.sim.now
                runtime.launch_async(red, addr_a, addr_a + n * 8,
                                     args=pack_args(out), sync=False,
                                     at_ns=now)
                runtime.launch_async(raw, addr_a, addr_a + 48 * 32,
                                     args=pack_args(addr_d), sync=False,
                                     at_ns=now)
                runtime.launch_async(big, addr_a, addr_a + n * 8,
                                     args=pack_args(addr_b, addr_c),
                                     sync=False, at_ns=now)
                runtime.sim.run()
            stats = platform.stats
            assert stats.get("exec.simt_launches") == 2        # masked
            assert stats.get("exec.fallback_reason.raw") == 2  # interpreter
            assert stats.get("exec.batched_launches") == 2     # uniform
            return [unit.occupancy.sampler.points
                    for unit in platform.device.units]

        shared = run(make_platform(backend="batched"))

        clamped = 0

        def occupy(tail, at_ns, ratio):
            nonlocal clamped
            for unit in tail.units:
                sampler = unit.occupancy.sampler
                clamped += bool(sampler.points
                                and at_ns < sampler.points[-1][0])
                sampler.record(at_ns, ratio)

        monkeypatch.setattr(LaunchTail, "occupy", occupy)
        reference = run(make_platform(backend="batched"))
        assert clamped
        assert shared == reference

