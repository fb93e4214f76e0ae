"""Tests of the bench itself (not part of tier-1):

    python3 -m pytest bench/tests -q

One ``run.py --quick`` over all six workloads (every workload at ~1/10
size, one round, two passes in the per-layer round) feeds most checks; it
takes ~30 s.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
import run as m2bench          # noqa: E402  (bench/run.py)
import workloads               # noqa: E402  (bench/workloads.py)


def run(script: str, *args: str, cwd: str = ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, script), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def worker(mode: str, workload: str, seed: int) -> dict:
    return m2bench.run_worker(mode, workload, seed, True)


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "results.json"
    done = run("run.py", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        loaded = json.load(handle)
    loaded["path"] = str(out)
    return loaded


def test_spec_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_spec_matches_the_workload_module(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_results_match_the_spec(spec, results):
    assert set(results["workloads"]) == {w["name"] for w in spec["workloads"]}
    for entry in results["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                got = entry[kind][m["name"]]
                assert got["unit"] == m["unit"], m["name"]
                assert isinstance(got["value"], (int, float)), m["name"]
            assert all(NAME.fullmatch(name) for name in entry[kind])
        assert set(entry["per_layer"]) == {m["name"]
                                           for m in spec["per_layer"]}
        assert all(entry["end_to_end"][m["name"]]["value"] > 0
                   for m in spec["end_to_end"])


def test_no_operation_fails(results):
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0, name
        assert entry["end_to_end"]["failed_share"]["value"] == 0, name
        assert entry["attempted"] >= 1


def test_layer_self_times_sum_to_the_traced_root(results):
    for name, entry in results["workloads"].items():
        layers = entry["per_layer"]
        root = entry["traced_root_s"]
        attributed = sum(value["value"] for metric, value in layers.items()
                         if metric.endswith(".self_s"))
        unattributed = layers["bench.unattributed_share"]["value"] * root
        assert attributed + unattributed == pytest.approx(root, rel=0.02), name


def test_trace_files_hold_nested_spans(results):
    out_dir = os.path.dirname(results["path"])
    for name in results["workloads"]:
        with open(os.path.join(out_dir, f"{name}.trace.json")) as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert spans[0][0] == "bench.pass" and spans[0][4] == -1
        for _name, _layer, start, end, parent, _launch in spans[1:]:
            assert 0 <= parent < len(spans)
            assert spans[parent][2] <= start <= end <= spans[parent][3]


def test_timed_subprocess_never_imports_the_wrappers():
    assert worker("timed", "kv_get_serve", 1)["tracing_imported"] is False


def test_seed_reaches_the_generators_and_reproduces():
    for workload in ("stream_warm_serve", "kernel_cold_sweep"):
        first = worker("timed", workload, 1)
        again = worker("timed", workload, 1)
        other = worker("timed", workload, 2)
        assert first["sim_digest"] == again["sim_digest"], workload
        assert first["sim_digest"] != other["sim_digest"], workload


def test_traced_pass_only_observes():
    timed = worker("timed", "kv_mixed_serve", 1)
    traced = worker("traced", "kv_mixed_serve", 1)
    assert traced["sim_digest_pass1"] == timed["sim_digest_pass1"]


def test_unknown_workload_exits_2():
    done = run("run.py", "--workload", "no_such_workload")
    assert done.returncode == 2
    assert not done.stdout.strip()


def test_driver_line(spec, tmp_path):
    done = run("run.py", "--workload", "kv_get_serve", "--seed", "5",
               "--seconds", "1", "--trace", "0", "--quick",
               "--out", str(tmp_path / "r.json"))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kv_get_serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_flags_a_regression(results, tmp_path):
    same = run("compare.py", results["path"], results["path"])
    assert same.returncode == 0, same.stdout
    assert "REGRESSION" not in same.stdout
    slower = json.loads(json.dumps(results))
    metric = slower["workloads"]["kv_get_serve"]["end_to_end"][
        "units_per_wall_s"]
    metric["value"] /= 2
    metric["samples"] = [wall * 2 for wall in metric["samples"]]
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    worse = run("compare.py", results["path"], str(path))
    assert worse.returncode == 1
    assert "REGRESSION" in worse.stdout


def test_compare_refuses_a_partial_run(results, tmp_path):
    partial = json.loads(json.dumps(results))
    del partial["workloads"]["cluster_fanout16"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    for pair in ((results["path"], str(path)), (str(path), results["path"])):
        done = run("compare.py", *pair)
        assert done.returncode == 1
        assert re.search(r"^cluster_fanout16 +MISSING", done.stdout, re.M)


def test_compare_reports_unresolved_on_the_statistic_it_compares():
    import compare
    bound = 0.1

    def rate(walls):
        return {"value": 100 / min(walls), "unit": "1/s",
                "estimator": "fastest", "samples": walls}

    steady, loose = rate([1.0, 1.01, 1.9, 2.5]), rate([1.0, 1.3, 1.3, 1.3])
    # the slow rounds of `steady` do not matter to a fastest-of-N value
    assert compare.verdict(steady, steady, "higher", bound) == "ok"
    assert compare.verdict(steady, loose, "higher", bound) == "unresolved"
    assert compare.verdict(steady, rate([1.2, 1.21]), "higher",
                           bound) == "REGRESSION"


def test_harness_limits_refuse_the_run(monkeypatch):
    def worker_reading(wall, unattributed):
        # answers both the traced pass and the re-reading of untraced pass 1
        return lambda *args: {"wall": wall, "walls": [1.0],
                              "tracing_imported": False, "metrics": {
            "bench.unattributed_share": {"value": unattributed,
                                         "unit": "ratio"}}}

    monkeypatch.setattr(m2bench, "run_worker", worker_reading(1.2, 0.01))
    trace = m2bench.traced_pass("kv_get_serve", 1, False, 1.0, "unused")
    assert trace["metrics"]["bench.trace_overhead_ratio"]["value"] == 1.2
    monkeypatch.setattr(m2bench, "run_worker", worker_reading(1.6, 0.01))
    with pytest.raises(m2bench.BenchError, match="trace_overhead_ratio"):
        m2bench.traced_pass("kv_get_serve", 1, False, 1.0, "unused")
    monkeypatch.setattr(m2bench, "run_worker", worker_reading(1.2, 0.2))
    with pytest.raises(m2bench.BenchError, match="unattributed_share"):
        m2bench.traced_pass("kv_get_serve", 1, False, 1.0, "unused")


def test_baseline_is_in_the_regime_each_why_claims(spec):
    """The predictions in the README and the `why` texts are cited by
    later issues: the committed baseline has to show what they say."""
    with open(os.path.join(BENCH, "baseline.json")) as handle:
        baseline = json.load(handle)
    assert set(baseline["workloads"]) == set(workloads.NAMES)
    for name, entry in baseline["workloads"].items():
        assert entry["sizes"] == workloads.build(name, 1, False).sizes, name
        claims = workloads.regime(name, entry["per_layer"])
        assert claims == entry["regime"], name
        assert all(claims.values()), (name, claims)
        limits = entry["per_layer"]
        assert limits["bench.trace_overhead_ratio"]["value"] <= 1.5, name
        assert limits["bench.unattributed_share"]["value"] <= 0.15, name
