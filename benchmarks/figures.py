"""Figure benchmark: the paper's figures, reproduced, scored and gated.

Runs every driver of ``repro.experiments.EXPERIMENTS`` at the ``POINTS``
arguments and writes, per experiment id, the driver's ``headline`` values
and its ``scorecard`` against ``PAPER_REFERENCE`` (paper value, reproduced
value, ratio, ``holds`` at ``TOLERANCE``) to ``FIDELITY.json``, plus
``summary.{keys, hold}``.  It never reads the host clock, so the
committed copy is the sim clock's **golden**: CI regenerates it in place
and ``git diff --exit-code FIDELITY.json`` is the whole comparison, and
``git log -p FIDELITY.json`` is the reproduction's history.  Host time
is m2bench's (``python3 bench/run.py``); the serving, tracing and
monitoring claims no driver reports are tier-1 asserts.

``GATES`` states the figures' *claims* — orderings, bands, correctness —
which must hold even in a PR that commits a new golden.  A row is
``(dotted path, relation, bound, claim)``; a ``str`` bound is a second
dotted path into the same payload.  Every row is evaluated and printed
as the run summary, and all failing rows are listed before the non-zero
exit.  A scorecard row that does not hold is recorded, not gated:
``summary.hold`` may only grow.

Usage::

    PYTHONPATH=src python benchmarks/figures.py [output.json]   # ~1.5 min
    python benchmarks/figures.py --table            # README table
    python benchmarks/figures.py --check README.md  # ... has not drifted
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.obs.monitor import DEFAULT_MONITOR_INTERVAL_NS

GOLDEN = Path(__file__).resolve().parent.parent / "FIDELITY.json"

#: Every id of ``EXPERIMENTS`` with the keyword arguments it runs at
#: (``{}``: the driver's defaults, the ``small`` scale).
POINTS = {
    "fig1a": {}, "fig1b": {}, "fig5": {}, "fig6a": {}, "fig6b": {},
    "fig10a": {}, "fig10b": {}, "fig10c": {},
    "fig11a": {"interarrival_sweep": (8_000.0, 2_000.0, 500.0)},
    "fig11b": {}, "fig12a": {}, "fig12b": {},
    "fig13a-freq": {}, "fig13a-ltu": {}, "fig13b": {},
    "fig14a": {}, "fig14b": {}, "fig15-olap": {}, "fig15-gpu": {},
    "area": {}, "instr-savings": {},
    "partitioning": {}, "partitioning-containment": {},
    "resilience": {}, "resilience-hedged": {}, "resilience-monitoring": {},
    "scaling": {"scale_name": "small", "requests": 8},
    "scaling-policies": {}, "serving": {}, "serving-autoscale": {},
    "engines": {},
}

#: The drivers that check their kernels' results against numpy.
_VERIFIED = (
    "fig6a", "fig6b", "fig10a", "fig10b", "fig10c", "fig12a", "fig13a-ltu",
    "fig13b", "partitioning", "partitioning-containment", "resilience",
    "resilience-hedged", "scaling", "scaling-policies", "serving",
    "serving-autoscale", "engines",
)

#: The ``engines`` ratchet: each kernel's sim-time error against the
#: interpreter, bounded at its reading rounded up to two significant
#: figures.  A fidelity fix lowers the bound it beats.
ENGINE_ERR_BOUNDS = {
    "olap_q6": 0.11, "olap_q14": 0.025, "olap_q1_1": 0.25,
    "histo4096": 0.58, "histo256": 0.58, "spmv": 7.2, "pagerank": 0.39,
    "dlrm": 20.0, "sssp": 0.26, "vecadd": 0.34, "gemv": 0.0084,
}

#: The claims a regenerated golden must still meet.
GATES = tuple(
    (f"{exp_id}.headline.correct", "==", True, "matches the reference")
    for exp_id in _VERIFIED
) + tuple(row for kernel, bound in ENGINE_ERR_BOUNDS.items() for row in (
    (f"engines.headline.{kernel}_err", "<=", bound,
     "the engine stays this close to the interpreter in sim time"),
    (f"engines.headline.{kernel}_fallbacks", "==", 0,
     "no launch falls back to the interpreter at probe size"),
)) + (
    ("fig1a.headline.max_slowdown", ">", 8.0,
     "CXL placement costs the worst workload most of an order of magnitude"),
    ("fig1a.headline.min_slowdown", ">", 1.0,
     "every workload is slower from CXL memory"),
    ("fig1b.headline.p95_ratio_75", "==", 1.0, "normalized to local DRAM"),
    ("fig1b.headline.p95_ratio_150", ">", 1.3,
     "KVS_A P95 grows with the load-to-use latency"),
    ("fig1b.headline.p95_ratio_600", ">", "fig1b.headline.p95_ratio_150",
     "and keeps growing at 4x LtU"),
    ("fig5.headline.m2func_reduction_vs_rb_max", ">",
     "fig5.headline.m2func_reduction_vs_rb_min",
     "end-to-end totals order M2func < CXL.io_DR < CXL.io_RB"),
    ("fig5.headline.m2func_reduction_vs_rb_min", ">", 0.10,
     "M2func's end-to-end reduction vs direct MMIO, lower band"),
    ("fig5.headline.m2func_reduction_vs_rb_min", "<", 0.25, "upper band"),
    ("fig5.headline.m2func_reduction_vs_rb_max", ">", 0.30,
     "M2func's end-to-end reduction vs the ring buffer, lower band"),
    ("fig5.headline.m2func_reduction_vs_rb_max", "<", 0.45, "upper band"),
    ("fig6a.headline.ndp_active_ratio", ">", 0.0,
     "the NDP units hold active contexts"),
    ("fig6a.headline.active_ratio_gain_min", ">=", -0.1,
     "fine-grained µthread slots sustain at least TB-granularity occupancy "
     "(NDP >= 0.9x every SM threadblock size)"),
    ("fig6b.headline.global_traffic_ratio", "<", 1.0,
     "unit-scope scratchpads cut HISTO global traffic vs GPU-NDP"),
    ("fig6b.headline.spad_traffic_ratio", "<", 1.0,
     "and its scratchpad traffic"),
    ("fig10a.headline.cpu_ndp_gmean", ">", 1.0,
     "CPU-NDP beats the host baseline"),
    ("fig10a.headline.evaluate_speedup_gmean", ">", 20.0,
     "M2NDP Evaluate is in the tens-of-x regime"),
    ("fig10a.headline.ideal_gmean", ">",
     "fig10a.headline.evaluate_speedup_gmean", "Ideal NDP bounds M2NDP"),
    ("fig10a.headline.norm_runtime_max", "<", 1.0,
     "every full-query Amdahl bar improves on the baseline"),
    ("fig10b.headline.m2func_improvement_min", ">", 1.0,
     "M2func improves KVStore P95 on both mixes"),
    ("fig10b.headline.cxl_io_rb_improvement_max", "<", 1.0,
     "ring-buffer offloading degrades it"),
    ("fig10b.headline.m2func_over_dr_min", ">", 1.0,
     "M2func beats direct MMIO on both mixes"),
    ("fig10c.headline.m2ndp_gmean", ">",
     "fig10c.headline.gpu_ndp_iso_area_gmean",
     "M2NDP beats GPU-NDP(Iso-Area) on average"),
    ("fig10c.headline.m2ndp_gmean", ">",
     "fig10c.headline.gpu_ndp_iso_flops_gmean",
     "and GPU-NDP(Iso-FLOPS)"),
    ("fig10c.headline.nsu_gmean", "<", 1.2,
     "NSU is no better than the GPU baseline"),
    ("fig10c.headline.iso_flops_over_16x", "<=", 1.05,
     "Iso-FLOPS (8 SMs) cannot beat the larger configurations"),
    ("fig10c.headline.m2ndp_gmean", ">", 1.0,
     "M2NDP accelerates the memory-bound GPU workloads"),
    ("fig11a.headline.heavy_dr_over_m2func_p95", ">", 5.0,
     "under load the serializing register pair has far higher P95"),
    ("fig11a.headline.kvs_throughput_gain", ">", 1.0,
     "M2func sustains higher throughput than direct MMIO"),
    ("fig11b.headline.vs_rb_KVS_A", ">", 1.5,
     "fine-grained kernels gain the most from fewer round trips"),
    ("fig11b.headline.vs_rb_SPMV", "<", 1.15,
     "coarse kernels see little protocol-level gain"),
    ("fig12a.headline.wo_m2func_min", ">", 1.0,
     "removing M2func costs every workload"),
    ("fig12a.headline.wo_finegrained_min", ">=", 0.97,
     "coarse spawning never helps (bank-conflict jitter allowed)"),
    ("fig12a.headline.wo_addr_opt_min", ">=", 0.85,
     "SIMT-style addressing never helps"),
    ("fig12a.headline.wo_addr_opt_max", ">", 1.001,
     "some workload pays for the extra index arithmetic"),
    ("instr-savings.headline.static_instr_reduction_min", ">", 0.02,
     "memory mapping saves static instructions in every kernel"),
    ("instr-savings.headline.static_instr_reduction_max", "<", 0.35,
     "by a bounded share"),
    ("fig12b.headline.x1_min", ">=", 0.9, "one partition is the single run"),
    ("fig12b.headline.x2_min", ">", 1.2, "two devices help every workload"),
    ("fig12b.headline.x4_over_x2_min", ">", 0.95,
     "four are no worse than two, up to the all-reduce / fixed-cost floor"),
    ("fig12b.headline.x8_min", ">", 1.8, "eight devices still scale"),
    ("fig13a-freq.headline.slowdown_1ghz", "<", 1.0, "slower at 1 GHz"),
    ("fig13a-freq.headline.slowdown_1ghz", ">", 0.55,
     "but not linearly slower: bandwidth-bound"),
    ("fig13a-freq.headline.speedup_3ghz", ">=", 1.0, "3 GHz never hurts"),
    ("fig13a-freq.headline.speedup_3ghz", "<", 1.30, "and gains little"),
    ("fig13a-ltu.headline.gmean_2xltu", ">", "fig13a-ltu.headline.gmean_1xltu",
     "the speedup grows with link latency (kernels never cross it)"),
    ("fig13a-ltu.headline.gmean_4xltu", ">", "fig13a-ltu.headline.gmean_2xltu",
     "and keeps growing at 4x LtU"),
    ("fig13a-ltu.headline.ndp_runtime_spread", "<", 1.05,
     "NDP kernel time is LtU-invariant"),
    ("fig13b.headline.normalized_clean", "==", 1.0,
     "normalized to the clean run"),
    ("fig13b.headline.step_drop_max", "<=", 1.02,
     "more dirty host lines never run faster"),
    ("fig13b.headline.impact_max", "<", 1.5,
     "back-invalidation overlaps with other µthreads: bounded at 80% dirty"),
    ("fig14a.headline.pe_perf_min", ">", 0.5,
     "every fixed-function PE is in M2NDP's performance class"),
    ("fig14a.headline.pe_perf_max", "<", 2.2, "from above as well"),
    ("fig14a.headline.pe_gap_best", "<", 0.15,
     "at least one domain matches closely"),
    ("fig14b.headline.speedup_1mem", "==", 1.0, "normalized to one memory"),
    ("fig14b.headline.speedup_8mem_min", ">", 6.0,
     "the in-switch block scales over 8 passive memories"),
    ("fig14b.headline.speedup_8mem_max", "<", 8.0,
     "sub-linearly: the switch hop is paid"),
    ("fig15-olap.headline.energy_reduction_olap_min", ">", 0.5,
     "M2NDP cuts OLAP energy on every query"),
    ("fig15-olap.headline.perf_per_energy_min", ">", 10.0,
     "and gains an order of magnitude in perf/energy"),
    ("fig15-gpu.headline.energy_reduction_gpu_min", ">", 0.2,
     "M2NDP cuts GPU-workload energy on every workload"),
    ("area.headline.ratio_error_max", "<=", 0.12,
     "every area-table entry is within 12% of the paper's"),
    ("scaling.headline.agg_speedup_step_min", ">=", 1.0,
     "aggregate throughput is monotone in devices"),
    ("scaling.headline.agg_speedup_x2", ">=", 1.2,
     "saturating vecadd + OLAP streams scale out across 2 devices"),
    ("scaling.headline.agg_speedup_x4", ">=", 3.0, "near-linear at 4"),
    ("scaling.headline.agg_speedup_x8", ">=", 5.0, "and at 8 devices"),
    ("scaling.headline.p95_ns_x1", ">", "scaling.headline.p95_ns_x8",
     "open-loop tail latency falls as devices absorb the backlog"),
    ("scaling-policies.headline.locality_p2p_bytes_max", "==", 0,
     "follow-the-shard never touches the switch"),
    ("scaling-policies.headline.replicated_p2p_bytes_max", "==", 0,
     "replicated data is local everywhere: no policy pays P2P"),
    ("serving-autoscale.headline.scale_ups", ">=", 1,
     "the autoscaler reacts to the burst"),
    ("resilience.headline.accounted", "==", True,
     "offered == served + shed + expired + failed in every cell"),
    ("resilience.headline.healthy_failed_max", "==", 0,
     "a zero-fault plan loses nothing"),
    ("resilience.headline.healthy_retry_identical", "==", True,
     "and never enters the retry path: both policies serve identically"),
    ("resilience.headline.retry_slo_gain_min", ">", 0.0,
     "under faults deadline-aware retries beat no-retry in every cell"),
    ("resilience.headline.retry_slo_min", ">=", 0.9,
     "and hold the SLO floor in every fault cell"),
    ("resilience-hedged.headline.unhedged_hedges", "==", 0,
     "hedge_delay 0 disables hedging"),
    ("resilience-hedged.headline.hedged_won_max", ">=", 1,
     "a hedge wins against a stalled primary"),
    ("resilience-monitoring.headline.recall_min", ">=", 1.0,
     "every injected fault is alerted"),
    ("resilience-monitoring.headline.healthy_alerts", "==", 0,
     "a healthy run raises no alert"),
    ("resilience-monitoring.headline.max_mtta_ns", "<=",
     DEFAULT_MONITOR_INTERVAL_NS,
     "an alert lands within one monitor beat of heartbeat detection"),
    ("partitioning.headline.shared_correct", "==", True,
     "both tenants match the reference on the shared cluster"),
    ("partitioning.headline.partitioned_correct", "==", True,
     "and on the partitioned one"),
    ("partitioning-containment.headline.rt_correct", "==", True,
     "the interactive tenant matches the reference through the kill"),
    ("partitioning.headline.partitioned_rt_p99_vs_solo", "<=", 1.10,
     "a partitioned interactive tenant's p99 stays within 10% of its "
     "solo run under an adversarial neighbour"),
    ("partitioning.headline.shared_rt_p99_vs_solo", ">",
     "partitioning.headline.partitioned_rt_p99_vs_solo",
     "the shared cluster shows the noisy-neighbour penalty partitions "
     "avoid (the point still exercises isolation)"),
    ("partitioning-containment.headline.rt_bytes_identical", "==", True,
     "a partition-scoped kill leaves another partition's result bytes "
     "untouched"),
    ("partitioning-containment.headline.rt_accounted", "==", True,
     "the interactive tenant's accounting identity survives the kill"),
    ("partitioning-containment.headline.noisy_accounted", "==", True,
     "the killed partition's tenant's accounting identity survives"),
    ("partitioning-containment.headline.alert_recall", ">=", 1.0,
     "monitoring alerts the partition kill"),
    ("partitioning-containment.headline.blast_radius_confined", "==", True,
     "a partition kill's blast radius stays inside the killed partition"),
    ("engines.headline.agreement", ">=", 0.63,
     "the engines' mean min/max runtime against the interpreter's"),
    ("summary.hold", ">=", 26,
     "a golden refresh may not lose fidelity: scorecard rows that hold"),
)

RELATIONS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le,
             ">": operator.gt, "<": operator.lt}


def _dig(payload: dict, dotted: str):
    """The value at ``dotted``; KeyError / TypeError when it is absent."""
    node = payload
    for part in dotted.split("."):
        node = node[part]
    return node


def check_gate(payload: dict, gate: tuple) -> tuple[bool, str]:
    """Whether one ``GATES`` row holds on ``payload``, and its summary line."""
    path, relation, bound, claim = gate
    try:
        value = _dig(payload, path)
        limit = _dig(payload, bound) if isinstance(bound, str) else bound
    except (KeyError, TypeError):
        return False, f"{path} {relation} {bound}: field missing — {claim}"
    against = f"{limit} ({bound})" if isinstance(bound, str) else limit
    return (RELATIONS[relation](value, limit),
            f"{path}: {value} {relation} {against} — {claim}")


README_BEGIN = "<!-- fidelity:begin -->"
README_END = "<!-- fidelity:end -->"


def readme_table(fidelity: dict) -> str:
    """The README "Reproduction status" table, one row per scorecard row."""
    rows = ["| Experiment | Key | Paper | Reproduced | Ratio | Holds |",
            "| --- | --- | --- | --- | --- | --- |"]
    for exp_id in POINTS:
        for card in fidelity[exp_id]["scorecard"]:
            rows.append(
                f"| `{exp_id}` | `{card['key']}` | {card['paper']:g} | "
                f"{card['reproduced']:.4g} | {card['ratio']:.3f} | "
                f"{'yes' if card['holds'] else 'no'} |")
    rows.append("")
    rows.append("{hold} of {keys} keys hold.".format(**fidelity["summary"]))
    return "\n".join(rows)


def check_readme(path: str) -> int:
    """0 when ``path``'s marked block is the committed golden's table."""
    text = Path(path).read_text()
    block = text.partition(README_BEGIN)[2].partition(README_END)[0]
    if block.strip() != readme_table(json.loads(GOLDEN.read_text())):
        print(f"{path}: the block between {README_BEGIN} and {README_END} "
              f"is not what `python benchmarks/figures.py --table` prints")
        return 1
    return 0


def main(out_path: str = "FIDELITY.json") -> dict:
    payload = {}
    for exp_id, kwargs in POINTS.items():
        result = EXPERIMENTS[exp_id](**kwargs)
        print(result.render(), end="\n\n")
        payload[exp_id] = {"headline": result.headline,
                           "scorecard": result.scorecard()}
    cards = [card for point in payload.values() for card in point["scorecard"]]
    payload["summary"] = {"keys": len(cards),
                          "hold": sum(card["holds"] for card in cards)}
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    results = [check_gate(payload, gate) for gate in GATES]
    for holds, line in results:
        print(f"  {'ok  ' if holds else 'FAIL'} {line}")
    failures = [line for holds, line in results if not holds]
    if failures:
        raise SystemExit(f"{len(failures)} of {len(results)} gates "
                         f"failed:\n  " + "\n  ".join(failures))
    return payload


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        raise SystemExit(check_readme(sys.argv[2]))
    if sys.argv[1:2] == ["--table"]:
        print(readme_table(json.loads(GOLDEN.read_text())))
    else:
        main(*sys.argv[1:2])
