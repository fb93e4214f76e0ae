"""Engine fidelity: each kernel's sim time on the batched engines
against the interpreter, the reference.

The engines time a launch by roofline or recorded replay, so their
``runtime_ns`` is close to the interpreter's event-driven schedule, not
equal.  The headline says how close per kernel, ``<kernel>_err = |engine
/ reference - 1|`` (running fast is as wrong as running slow), with its
``_fallbacks`` to the interpreter, the mean ``agreement`` (min / max) and
``correct``.  It pins both backends; every other driver runs the
default, ``batched``.  The first nine kernels
restate m2bench's ``kernel_cold_sweep`` probe (``bench/workloads.py``'s
``SWEEP`` at probe size, ``PROBE_SEED``, ``STRUCTURE_SALT``); vecadd and
gemv are ``tests/exec/test_backends.py``'s.
"""

from __future__ import annotations

import statistics
from functools import partial

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.host.api import pack_args
from repro.kernels.vecadd import VECADD
from repro.workloads import dlrm, graph, histogram, llm, olap, spmv
from repro.workloads.base import NDPRunResult, make_platform

PROBE_SEED = 1
STRUCTURE_SALT = 2


def _run_vecadd(platform, a: np.ndarray) -> NDPRunResult:
    """c = a + reversed(a)."""
    runtime = platform.runtime
    b = a[::-1].copy()
    addr_a, addr_b = runtime.alloc_array(a), runtime.alloc_array(b)
    addr_c = runtime.alloc(a.nbytes)
    instance = runtime.run_kernel(VECADD, addr_a, addr_a + a.nbytes,
                                  args=pack_args(addr_b, addr_c))
    out = runtime.read_array(addr_c, a.dtype, len(a))
    return NDPRunResult("vecadd", instance.runtime_ns,
                        bool(np.array_equal(out, a + b)))


def _gemv_data() -> llm.GEMVData:
    """A 512 x 64 GEMV (the model only labels the launch)."""
    gen = np.random.default_rng(7)
    weights = gen.normal(0, 0.1, (512, 64)).astype(np.float32)
    x = gen.normal(0, 1, 64).astype(np.float32)
    return llm.GEMVData(weights, x, weights.astype(np.float64) @ x,
                        llm.OPT_2_7B, weights.nbytes)


#: (kernel, runner, input generator), in report order.
KERNELS = (
    *((f"olap_{query}", olap.run_ndp_evaluate,
       partial(olap.generate, query, 4096, salt=PROBE_SEED))
      for query in ("q6", "q14", "q1_1")),
    ("histo4096", histogram.run_ndp,
     partial(histogram.generate, 1 << 11, 1024, salt=PROBE_SEED)),
    ("histo256", histogram.run_ndp,
     partial(histogram.generate, 1 << 11, 256, salt=PROBE_SEED)),
    ("spmv", spmv.run_ndp,
     partial(spmv.generate, 128, 4, salt=STRUCTURE_SALT)),
    ("pagerank", graph.run_ndp_pagerank,
     partial(graph.generate, 256, 8, salt=STRUCTURE_SALT)),
    ("dlrm", dlrm.run_ndp, partial(dlrm.generate, 1024, 4, salt=PROBE_SEED)),
    ("sssp", graph.run_ndp_sssp,
     partial(graph.generate, 128, 4, salt=STRUCTURE_SALT)),
    ("vecadd", _run_vecadd, lambda: np.arange(4096, dtype=np.int64) * 7),
    ("gemv", llm.run_ndp, _gemv_data),
)


def run_engines() -> ExperimentResult:
    """Every kernel of ``KERNELS`` once per backend, on fresh platforms."""
    result = ExperimentResult(
        "engines", "Sim-time error of the batched engines against the "
                   "interpreter")
    for kernel, run, make_data in KERNELS:
        data = make_data()
        reference = run(make_platform(backend="interpreter"), data)
        platform = make_platform(backend="batched")
        engine = run(platform, data)
        stats = platform.stats
        point = int(stats.get("exec.point_launches"))
        result.add(
            kernel=kernel, reference_ns=reference.runtime_ns,
            engine_ns=engine.runtime_ns,
            err=abs(engine.runtime_ns / reference.runtime_ns - 1.0),
            uniform=int(stats.get("exec.batched_launches")),
            # exec.simt_launches counts the point engine's launches too
            masked=int(stats.get("exec.simt_launches")) - point,
            point=point, fallbacks=int(stats.get("exec.batched_fallbacks")),
            correct=reference.correct and engine.correct)
    rows = result.rows
    result.headline = {
        **{f"{row['kernel']}_err": row["err"] for row in rows},
        **{f"{row['kernel']}_fallbacks": row["fallbacks"] for row in rows},
        "agreement": statistics.fmean(
            min(row["engine_ns"], row["reference_ns"])
            / max(row["engine_ns"], row["reference_ns"]) for row in rows),
        "correct": all(result.column("correct")),
    }
    result.notes = ("uniform / masked / point: launches per engine; "
                    "fallbacks: launches the interpreter ran instead")
    return result


if __name__ == "__main__":
    print(run_engines().render())
