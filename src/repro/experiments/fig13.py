"""Fig 13: sensitivity studies.

(a) NDP-unit frequency (1/2/3 GHz) and CXL load-to-use latency (1x/2x/4x):
lower frequency barely hurts (memory-bound); higher LtU *helps* M2NDP's
relative speedup because only the baseline host crosses the link during
kernels.

(b) Dirty host cachelines (20/40/80 % of kernel data): back-invalidation
round trips overlap with other µthreads, so the slowdown stays bounded
even at 80 % dirty.
"""

from __future__ import annotations

from repro.experiments.common import EXPERIMENT_BACKEND, ExperimentResult
from repro.workloads import dlrm, histogram
from repro.config import default_system
from repro.workloads.base import make_platform, scale


def run_fig13a_frequency(scale_name: str = "small") -> ExperimentResult:
    """NDP frequency sweep on a representative bandwidth-bound workload."""
    preset = scale(scale_name)
    data = histogram.generate(preset.elements // 2, 4096)
    result = ExperimentResult(
        "fig13a-freq", "M2NDP runtime vs NDP unit frequency (HISTO4096)"
    )
    runtimes: dict[float, float] = {}
    for freq in (1.0, 2.0, 3.0):
        platform = make_platform(default_system().with_ndp_freq(freq),
                                 backend=EXPERIMENT_BACKEND)
        run = histogram.run_ndp(platform, data)
        runtimes[freq] = run.runtime_ns
    for freq, ns in runtimes.items():
        result.add(freq_ghz=freq, runtime_ns=ns,
                   speedup_vs_default=runtimes[2.0] / ns)
    result.headline = {"slowdown_1ghz": runtimes[2.0] / runtimes[1.0],
                       "speedup_3ghz": runtimes[2.0] / runtimes[3.0]}
    return result


def run_fig13a_ltu(scale_name: str = "small") -> ExperimentResult:
    """LtU sweep: M2NDP kernel time is latency-invariant; the baseline CPU/
    GPU degrade, so relative speedups grow."""
    from repro.workloads import olap

    preset = scale(scale_name)
    data = olap.generate("q6", preset.rows // 2)
    result = ExperimentResult(
        "fig13a-ltu", "Speedup vs CXL load-to-use latency (OLAP Q6 Evaluate)"
    )
    for factor, ltu in ((1, 150.0), (2, 300.0), (4, 600.0)):
        system = default_system().with_ltu(ltu)
        platform = make_platform(system, backend=EXPERIMENT_BACKEND)
        run = olap.run_ndp_evaluate(platform, data)
        baseline = olap.baseline_evaluate_ns(data, ltu_ns=ltu)
        result.add(ltu_factor=f"{factor}x", ltu_ns=ltu,
                   ndp_runtime_ns=run.runtime_ns,
                   speedup=baseline / run.runtime_ns,
                   correct=run.correct)
        result.headline[f"gmean_{factor}xltu"] = baseline / run.runtime_ns
    ndp = result.column("ndp_runtime_ns")
    result.headline["ndp_runtime_spread"] = max(ndp) / min(ndp)
    result.headline["correct"] = all(result.column("correct"))
    result.notes = (
        "one OLAP query, not the GPU-workload GMEAN the reference keys "
        "average over: the absolute speedups are the OLAP regime's"
    )
    return result


def run_fig13b(scale_name: str = "small",
               dirty_fractions: tuple[float, ...] = (0.0, 0.2, 0.4, 0.8),
               ) -> ExperimentResult:
    """Dirty-host-cacheline limit study (HDM-DB back-invalidation)."""
    preset = scale(scale_name)
    data = dlrm.generate(preset.dlrm_rows, batch=16, dim=128, lookups=24)
    result = ExperimentResult(
        "fig13b", "M2NDP runtime vs dirty host cacheline ratio (DLRM SLS)"
    )
    baseline_ns = None
    for fraction in dirty_fractions:
        platform = make_platform(dirty_fraction=fraction, backend=EXPERIMENT_BACKEND)
        run = dlrm.run_ndp(platform, data)
        if baseline_ns is None:
            baseline_ns = run.runtime_ns
        result.add(
            dirty_pct=int(fraction * 100),
            runtime_ns=run.runtime_ns,
            normalized=run.runtime_ns / baseline_ns,
            back_invalidations=platform.stats.get("hdm.back_invalidations"),
            correct=run.correct,
        )
    normalized = result.column("normalized")
    result.headline = {
        "normalized_clean": normalized[0],
        "impact_min": normalized[1] - 1.0,      # lowest dirty fraction
        "impact_max": normalized[-1] - 1.0,     # highest dirty fraction
        "step_drop_max": max(a / b for a, b in zip(normalized, normalized[1:])),
        "correct": all(result.column("correct")),
    }
    return result
