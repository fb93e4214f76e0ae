"""Smoke + shape tests for the cheap experiment drivers (every driver is
run by ``benchmarks/figures.py``; its golden, ``FIDELITY.json``, is read
here)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, PAPER_REFERENCE
from repro.experiments.common import TOLERANCE, ExperimentResult
from repro.experiments.fig05 import run_fig5
from repro.experiments.fig11 import run_fig11b
from repro.experiments.fig12 import _inflate_addressing, static_instruction_savings
from repro.experiments.fig14 import run_fig14b


ROOT = Path(__file__).resolve().parent.parent.parent
FIDELITY = json.loads((ROOT / "FIDELITY.json").read_text())

#: Drivers that simulate nothing or next to nothing (< 0.2 s together).
CHEAP = ("fig1a", "fig5", "fig11b", "fig14b", "area", "instr-savings")


class TestRegistry:
    def test_every_figure_has_a_driver(self):
        """One id per experiment: registry key == ``figures.POINTS`` key
        (the golden's) == result id == reference key."""
        assert set(FIDELITY) - {"summary"} == set(EXPERIMENTS)
        assert set(PAPER_REFERENCE) <= set(EXPERIMENTS)
        for exp_id in CHEAP:
            assert EXPERIMENTS[exp_id]().experiment_id == exp_id

    def test_paper_reference_covers_headlines(self):
        for exp_id, reference in PAPER_REFERENCE.items():
            assert all(type(value) is float for value in reference.values())
            assert set(FIDELITY[exp_id]["headline"]) >= set(reference)

    def test_headlines_do_not_depend_on_the_hash_seed(self):
        script = ("import json; from repro.experiments import EXPERIMENTS; "
                  "print(json.dumps([EXPERIMENTS[i]().headline for i in "
                  "('fig5', 'instr-savings', 'fig14b')], sort_keys=True))")
        outputs = [subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env={"PYTHONPATH": str(ROOT / "src"),
                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "4242")]
        assert outputs[0] == outputs[1] and "comm_reduction_min" in outputs[0]


class TestExperimentResult:
    def test_scorecard_tolerance_boundary(self, monkeypatch):
        assert TOLERANCE == 0.25
        monkeypatch.setitem(PAPER_REFERENCE, "x", {"k": 4.0})
        result = ExperimentResult("x", "t")
        holds = {}
        for reproduced in (3.0, 5.0, 2.9996, 5.0004, 0.0):
            result.headline = {"k": reproduced, "derived": 1.0}
            (card,) = result.scorecard()
            holds[card["ratio"]] = card.pop("holds")
            assert card == {"key": "k", "paper": 4.0, "ratio": reproduced / 4.0,
                            "reproduced": reproduced}
        assert holds == {0.75: True, 1.25: True, 0.7499: False,
                         1.2501: False, 0.0: False}
        assert ExperimentResult("serving", "t").scorecard() == []

    def test_render_contains_rows(self):
        result = ExperimentResult("x", "title")
        result.add(a=1, b=2.5)
        out = result.render()
        assert "title" in out and "2.500" in out

    def test_column_extraction(self):
        result = ExperimentResult("x", "t")
        result.add(v=1)
        result.add(v=2)
        assert result.column("v") == [1, 2]


class TestFig5Driver:
    def test_paper_reductions(self):
        result = run_fig5()
        assert [card["key"] for card in result.scorecard()] == [
            "comm_reduction_min", "comm_reduction_max",
            "m2func_reduction_vs_rb_min", "m2func_reduction_vs_rb_max"]
        for card in result.scorecard():
            assert card["reproduced"] == pytest.approx(card["paper"], abs=5e-3)
        assert "holds" in result.render() and "MISS" not in result.render()

    def test_custom_latencies(self):
        result = run_fig5(kernel_ns=1000.0, x_ns=100.0, y_ns=100.0)
        totals = {r["mechanism"]: r["total_ns"] for r in result.rows}
        assert totals["m2func"] == 1200.0
        assert totals["cxl_io_rb"] == 1800.0


class TestFig11bDriver:
    def test_fine_grained_gains_most(self):
        result = run_fig11b()
        rows = {r["workload"]: r for r in result.rows}
        assert rows["KVS_A"]["vs_rb"] > rows["SPMV"]["vs_rb"]


class TestFig12Helpers:
    def test_inflation_only_touches_bodies(self):
        source = ".init\nret\n.body\nret\n.final\nret"
        inflated = _inflate_addressing(source)
        assert inflated.count("add x0, x0, x0") == 4
        from repro.isa.assembler import assemble_kernel
        kernel = assemble_kernel(inflated)
        assert kernel.initializer is not None
        assert len(kernel.bodies[0]) == 5

    def test_static_savings_in_paper_band(self):
        result = static_instruction_savings()
        for row in result.rows:
            assert 0.0 < row["reduction"] < 0.4

    def test_inflated_kernels_still_assemble_and_run(self):
        import numpy as np
        from repro.isa.assembler import assemble_kernel
        from repro.kernels.vecadd import VECADD
        from repro.host.api import pack_args
        from repro.workloads.base import make_platform

        platform = make_platform()
        runtime = platform.runtime
        n = 256
        a = np.arange(n, dtype=np.int64)
        addr_a = runtime.alloc_array(a)
        addr_b = runtime.alloc_array(a)
        addr_c = runtime.alloc(n * 8)
        runtime.run_kernel(_inflate_addressing(VECADD), addr_a,
                           addr_a + n * 8, args=pack_args(addr_b, addr_c))
        assert np.array_equal(runtime.read_array(addr_c, np.int64, n), 2 * a)


class TestFig14bDriver:
    def test_speedup_monotone_in_memories(self):
        result = run_fig14b()
        speedups = result.column("speedup")
        assert speedups == sorted(speedups)
        assert speedups[-1] > 6.0


class TestServingDriver:
    def test_sweep_reports_per_tenant_slo_and_p99(self):
        from repro.experiments.serving import run_serving

        result = run_serving(requests=12)
        combos = {(r["scheduler"], r["max_batch"]) for r in result.rows}
        assert combos == {("fifo", 1), ("fifo", 8), ("wfq", 1), ("wfq", 8)}
        tenant_rows = [r for r in result.rows if r["tenant"] != "(aggregate)"]
        assert all(r["correct"] for r in result.rows)
        assert all(r["p99_ns"] >= r["p50_ns"] >= 0 for r in tenant_rows)
        assert all(0.0 <= r["slo_att"] <= 1.0 for r in tenant_rows)
        # batching actually batched the batchable tenants somewhere
        assert any(r["mean_batch"] > 1.0 for r in tenant_rows
                   if r["max_batch"] == 8)

    def test_traced_run_manifest_records_the_partition_map(self, tmp_path):
        from repro.experiments.serving import run_serving_traced

        _, manifest_path = run_serving_traced(
            prefix=str(tmp_path / "serving"), requests=8)
        manifest = json.loads(Path(manifest_path).read_text())
        assert "partitions" in manifest
