"""End-to-end workload correctness at tiny scale: every Table V workload
produces numerically correct results through the full NDP stack."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.host.gpu import WARP_SIZE
from repro.host.offload import make_offload_path
from repro.workloads import dlrm, graph, histogram, kvstore, llm, olap, spmv
from repro.workloads.base import make_platform, scale

TINY = scale("tiny")


class TestOLAP:
    @pytest.mark.parametrize("query", ["q6", "q14", "q1_1", "q1_2", "q1_3"])
    def test_query_masks_correct(self, query):
        platform = make_platform()
        data = olap.generate(query, rows=TINY.rows)
        result = olap.run_ndp_evaluate(platform, data)
        assert result.correct

    def test_columns_do_not_depend_on_the_hash_seed(self):
        script = ("import hashlib; from repro.workloads import olap; "
                  "data = olap.generate('q6', 4096); print(hashlib.sha256("
                  "b''.join(c.tobytes() for c in data.columns.values()))"
                  ".hexdigest())")
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = [subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env={"PYTHONPATH": str(src),
                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "4242")]
        assert outputs[0] == outputs[1] and len(outputs[0].strip()) == 64

    def test_selectivity_reasonable(self):
        data = olap.generate("q6", rows=TINY.rows)
        assert 0.0 < data.reference_mask.mean() < 0.5

    def test_baseline_hierarchy(self):
        """Baseline > CPU-NDP > Ideal in runtime (speedup ordering)."""
        data = olap.generate("q6", rows=TINY.rows)
        base = olap.baseline_evaluate_ns(data)
        cpu_ndp = olap.cpu_ndp_evaluate_ns(data)
        ideal = olap.ideal_ndp_evaluate_ns(data)
        assert base > cpu_ndp > ideal

    def test_m2ndp_between_cpu_ndp_and_ideal_at_scale(self):
        platform = make_platform()
        data = olap.generate("q6", rows=1 << 15)
        result = olap.run_ndp_evaluate(platform, data)
        ideal = olap.ideal_ndp_evaluate_ns(data)
        assert result.runtime_ns >= ideal

    def test_phase_split_accounting(self):
        data = olap.generate("q6", rows=TINY.rows)
        base = olap.baseline_evaluate_ns(data)
        phases = olap.full_query_phases_ns(data, base / 10, base)
        assert phases["total"] < phases["baseline_total"]
        assert phases["evaluate"] + phases["host"] == phases["total"]


class TestHistogram:
    @pytest.mark.parametrize("nbins", [256, 4096])
    def test_bins_correct(self, nbins):
        platform = make_platform()
        data = histogram.generate(TINY.elements, nbins)
        result = histogram.run_ndp(platform, data)
        assert result.correct

    def test_nbins_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            histogram.generate(100, 100)

    def test_scratchpad_traffic_dominates_atomics(self):
        """Bin updates stay in the scratchpad (Fig 6b)."""
        platform = make_platform()
        data = histogram.generate(TINY.elements, 256)
        result = histogram.run_ndp(platform, data)
        assert result.extras["spad_bytes"] > 0

    def test_gpu_spec_shape(self):
        data = histogram.generate(TINY.elements, 256)
        spec = histogram.gpu_spec(data)
        assert spec.total_tbs >= 1
        profile = spec.warp_profile(0)
        assert profile.instructions > 0 and profile.mem_ops


class TestSPMV:
    def test_result_matches_reference(self):
        platform = make_platform()
        data = spmv.generate(TINY.nodes, TINY.avg_degree)
        result = spmv.run_ndp(platform, data)
        assert result.correct

    def test_csr_structure_valid(self):
        m = spmv.generate_csr(100, 4)
        assert len(m.row_ptr) == 101
        assert m.row_ptr[-1] == len(m.col_idx) == len(m.values)
        assert (np.diff(m.row_ptr) >= 0).all()
        assert (m.col_idx < m.n_cols).all()

    def test_gpu_divergence_from_real_rows(self):
        data = spmv.generate(TINY.nodes, TINY.avg_degree)
        spec = spmv.gpu_spec(data)
        lengths = data.matrix.row_lengths()
        skewed = False
        for w in range(min(spec.total_warps, 16)):
            rows = lengths[w * WARP_SIZE:(w + 1) * WARP_SIZE]
            # SIMT lockstep: every lane walks the warp's longest row
            assert len(spec.warp_profile(w).mem_ops) == rows.max() + 1
            skewed |= bool(rows.mean() < rows.max())
        assert skewed                          # skew exists


class TestGraph:
    def test_pagerank_iteration_correct(self):
        platform = make_platform()
        data = graph.generate(TINY.nodes, TINY.avg_degree)
        result = graph.run_ndp_pagerank(platform, data, iterations=2)
        assert result.correct

    def test_pagerank_rank_conservation(self):
        data = graph.generate(256, 4)
        rank = np.full(256, 1.0 / 256)
        new_rank = graph.reference_pagerank_iter(data, rank)
        # teleport mass plus damped propagated mass can't exceed 1
        assert 0 < new_rank.sum() <= 1.0 + 1e-9

    def test_sssp_distances_correct(self):
        platform = make_platform()
        data = graph.generate(TINY.nodes // 2, TINY.avg_degree)
        result = graph.run_ndp_sssp(platform, data)
        assert result.correct
        assert result.extras["sweeps"] >= 1

    def test_transpose_preserves_edges(self):
        csr = spmv.generate_csr(64, 4)
        transposed = graph._transpose(csr)
        assert transposed.nnz == csr.nnz
        forward = set()
        for u in range(csr.n_rows):
            for k in range(csr.row_ptr[u], csr.row_ptr[u + 1]):
                forward.add((u, int(csr.col_idx[k])))
        backward = set()
        for v in range(transposed.n_rows):
            for k in range(transposed.row_ptr[v], transposed.row_ptr[v + 1]):
                backward.add((int(transposed.col_idx[k]), v))
        assert forward == backward


class TestDLRM:
    @pytest.mark.parametrize("batch", [1, 4])
    def test_sls_correct(self, batch):
        platform = make_platform()
        data = dlrm.generate(TINY.dlrm_rows, batch=batch, dim=32, lookups=8)
        result = dlrm.run_ndp(platform, data)
        assert result.correct

    def test_zipf_indices_in_range(self):
        from repro.workloads.base import rng
        idx = dlrm.zipf_indices(rng(1), 1000, 5000)
        assert (idx >= 0).all() and (idx < 1000).all()

    def test_zipf_skewed(self):
        from repro.workloads.base import rng
        idx = dlrm.zipf_indices(rng(2), 1000, 5000)
        _, counts = np.unique(idx, return_counts=True)
        assert counts.max() > 5 * counts.mean()


class TestLLM:
    def test_gemv_correct(self):
        platform = make_platform()
        data = llm.generate(llm.OPT_2_7B, sim_hidden=TINY.llm_hidden,
                            sim_layers=TINY.llm_layers)
        result = llm.run_ndp(platform, data)
        assert result.correct

    def test_model_shapes(self):
        assert llm.OPT_30B.total_weight_bytes > llm.OPT_2_7B.total_weight_bytes
        # OPT-2.7B ≈ 2.7B params * 4 bytes ≈ 10.5 GB of weights (fp32)
        params = llm.OPT_2_7B.total_weight_bytes / 4
        assert 2e9 < params < 4e9

    def test_extrapolation_factor(self):
        data = llm.generate(llm.OPT_2_7B, sim_hidden=64, sim_layers=2)
        assert data.scale_factor > 100


class TestKVStore:
    def test_ndp_gets_correct(self):
        platform = make_platform()
        data = kvstore.kvs_b(TINY.kv_items, 100)
        result = kvstore.run_ndp(platform, data, make_offload_path("m2func"))
        assert result.correct
        assert result.served == 100

    def test_mixes(self):
        a = kvstore.kvs_a(100, 1000)
        b = kvstore.kvs_b(100, 1000)
        a_gets = sum(r.is_get for r in a.requests) / len(a.requests)
        b_gets = sum(r.is_get for r in b.requests) / len(b.requests)
        assert abs(a_gets - 0.5) < 0.1
        assert abs(b_gets - 0.95) < 0.05

    def test_chain_positions_consistent(self):
        data = kvstore.kvs_a(200, 10)
        # keys hashed to the same bucket get increasing depths
        seen: dict[int, int] = {}
        for i, b in enumerate(data.bucket_of):
            assert data.chain_position[i] == seen.get(int(b), 0)
            seen[int(b)] = data.chain_position[i] + 1

    def test_baseline_p95_grows_with_latency(self):
        data = kvstore.kvs_a(TINY.kv_items, 200)
        p95 = {}
        for ltu in (75.0, 600.0):
            platform = make_platform()
            p95[ltu] = kvstore.run_baseline(platform, data, ltu_ns=ltu).p95_ns
        assert p95[600.0] > 2 * p95[75.0]

    def test_m2func_beats_baseline_p95(self):
        data = kvstore.kvs_a(TINY.kv_items, 300)
        base = kvstore.run_baseline(make_platform(), data)
        ndp = kvstore.run_ndp(make_platform(), data,
                              make_offload_path("m2func"))
        assert ndp.p95_ns < base.p95_ns
