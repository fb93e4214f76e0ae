"""m2bench: the repo's benchmark.  One command prints every metric by
name with its unit and checks outputs.

    python3 bench/run.py                       # all workloads, both modes
    python3 bench/run.py --workload kv_get_serve --seed 7 --trace 0
    python3 bench/run.py --quick --out /tmp/a.json

This process only orchestrates: every measurement runs in a fresh
single-threaded ``worker.py`` subprocess (no threads, no pools: the
reference box has 2 cores) with every ``REPRO_*`` variable cleared.

Per workload:

* *end to end* (``--trace 0``): a fixed number of rounds, ``--seconds``
  divided by the nominal length of a round (``ROUND_S``) -- set by a
  constant, never by the clock, so a faster or slower program gets the
  same number of readings.  A round is one fresh subprocess doing set-up
  (import ``repro``, build the platform, generate data from ``--seed``,
  one untimed warm pass of a quarter of the size), then one timed pass
  with tracing off.  Every round of a seed does identical work from an
  identical state and a busy host only ever adds time, so the two host
  times are the fastest of the N readings, in raw ``perf_counter``
  seconds (README, "Noise").
* *per layer* (``--trace 1``): one round of ``DRIFT_PASSES`` timed passes
  on one platform (how pass time climbs with retained state:
  ``bench.wall_drift``), then a subprocess that repeats the set-up and
  runs pass 1 under ``tracing.py``.
* *reference probe* (both modes): the workload's reduced-size run on the
  interpreter and on the batched engine, on inputs that do not follow
  ``--seed``.

With ``--workload`` and ``--trace`` both given, the last line of stdout
is the JSON object the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
#: Seconds one end-to-end round (set-up, warm pass, one timed pass) takes
#: on the quiet reference box, rounded; only divides ``--seconds``.
ROUND_S = 4.0
DRIFT_PASSES = 5
#: Limits on the harness itself; beyond them no result is printed.
MAX_TRACE_OVERHEAD = 1.5
MAX_UNATTRIBUTED = 0.15


class BenchError(RuntimeError):
    """A guard of the bench failed; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    # repro.workloads.olap seeds its generator with hash(query_name)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, workload: str, seed: int, quick: bool,
               *extra: str) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", workload, "--seed", str(seed), *extra]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"{workload}: {mode} subprocess exited "
                         f"{done.returncode}\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def iqr_ratio(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def fastest_gap(samples: list[float]) -> float:
    """How well a fastest-of-N reading is resolved: the distance between
    the two best readings as a share of the best.  It is the range of the
    N leave-one-out estimates, i.e. the spread of the statistic that is
    reported, not of the readings behind it."""
    if len(samples) < 2:
        return 0.0
    best, next_best = sorted(samples)[:2]
    return (next_best - best) / best


def spread(entry: dict) -> float:
    """Spread of a metric's value within its run, from the per-round
    readings and the estimator that turned them into the value."""
    samples = entry.get("samples", [])
    if entry.get("estimator") == "fastest":
        return fastest_gap(samples)
    return iqr_ratio(samples)


def timed_rounds(workload: str, seed: int, quick: bool, rounds: int,
                 passes: int) -> list[dict]:
    results = [run_worker("timed", workload, seed, quick,
                          "--passes", str(passes)) for _ in range(rounds)]
    if any(r["tracing_imported"] for r in results):
        raise BenchError(f"{workload}: the timed subprocess imported tracing")
    return results


def require_same(workload: str, key: str, results: list[dict]) -> None:
    if any(r[key] != results[0][key] for r in results):
        raise BenchError(f"{workload}: {key} differs between subprocesses of "
                         f"the same seed: the run is not reproducible, or "
                         f"the wrappers do not only observe")


def end_to_end(workload: str, rounds: list[dict], probe: dict) -> dict:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    setups = [r["setup_s"] for r in rounds]
    walls = [r["walls"][0] for r in rounds]
    rss = [r["peak_rss_mb"] for r in rounds]
    units = rounds[0]["units"][0]
    return {
        "setup_s": {"value": min(setups), "unit": "s",
                    "estimator": "fastest", "samples": setups},
        "units_per_wall_s": {"value": units / min(walls), "unit": "1/s",
                             "estimator": "fastest", "samples": walls},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB",
                        "estimator": "median", "samples": rss},
        # The driver bounds a metric by a share of its median, which has
        # no meaning at 0: failed_share and sim_err_vs_ref go to it as
        # their never-zero complements, and compare.py applies the
        # absolute bounds to the plain forms.
        "served_share": metric(1.0 - failed / attempted, "ratio"),
        "sim_agreement_vs_ref": metric(probe["sim_agreement_vs_ref"],
                                       "ratio"),
        "failed_share": metric(failed / attempted, "ratio"),
        "sim_err_vs_ref": metric(probe["sim_err_vs_ref"], "ratio"),
    }


def traced_pass(workload: str, seed: int, quick: bool, pass1_wall: float,
                trace_path: str) -> dict:
    """Run the traced subprocess and apply the limits on the harness.

    ``bench.trace_overhead_ratio`` divides two single readings from
    different processes on a host whose speed swings by 1.5x within
    seconds, so a reading above the limit is not yet a tracer that costs
    too much: the pair is read again, untraced pass 1 first and the
    traced pass right after it, and the run is refused when the third
    pair is still above the limit."""
    for attempt in range(3):
        if attempt:
            pass1_wall = timed_rounds(workload, seed, quick, 1, 1)[0][
                "walls"][0]
        trace = run_worker("traced", workload, seed, quick,
                           "--trace-out", trace_path)
        overhead = trace["wall"] / pass1_wall
        if quick or overhead <= MAX_TRACE_OVERHEAD:
            break
    else:
        raise BenchError(f"{workload}: bench.trace_overhead_ratio = "
                         f"{overhead:.3f} exceeds {MAX_TRACE_OVERHEAD} on "
                         f"three pairs of readings")
    unattributed = trace["metrics"]["bench.unattributed_share"]["value"]
    if not quick and unattributed > MAX_UNATTRIBUTED:
        raise BenchError(f"{workload}: bench.unattributed_share = "
                         f"{unattributed:.3f} exceeds {MAX_UNATTRIBUTED}")
    trace["metrics"]["bench.trace_overhead_ratio"] = metric(overhead, "ratio")
    trace["pass1_wall_s"] = pass1_wall
    return trace


def per_layer(drift: dict, pass1_wall: float, trace: dict,
              probe: dict) -> dict:
    layers = trace["metrics"]
    events = layers["sim.events"]["value"]
    layers.update({
        "sim.host_us_per_event": metric(
            pass1_wall / events * 1e6 if events else 0.0, "us"),
        "sim.ns_per_wall_s": metric(
            layers["sim.runtime_ns"]["value"] / pass1_wall, "ns/s"),
        "bench.wall_iqr_ratio": metric(iqr_ratio(drift["walls"]), "ratio"),
        "bench.wall_drift": metric(drift["walls"][-1] / drift["walls"][0],
                                   "ratio"),
        "ref.probe_wall_s": metric(probe["probe_wall_s"], "s"),
        "ref.max_err": metric(probe["max_err"], "ratio"),
    })
    return layers


def measure(workload: str, seed: int, quick: bool, rounds: int,
            trace, trace_path: str) -> dict:
    """Run one workload; returns its entry of ``results.json``.  ``trace``
    is 0 (end to end only), 1 (per layer only) or None (both)."""
    probe = run_worker("probe", workload, seed, quick)
    timed = [] if trace == 1 else timed_rounds(workload, seed, quick,
                                               rounds, 1)
    drift = None if trace == 0 else timed_rounds(
        workload, seed, quick, 1, 2 if quick else DRIFT_PASSES)[0]
    processes = timed + ([drift] if drift else [])
    require_same(workload, "sim_digest_pass1", processes)
    require_same(workload, "sim_digest", timed)
    first = processes[0]
    entry = {
        "unit_of_work": first["unit"],
        "sizes": first["sizes"],
        "rounds": len(timed),
        "units_per_pass": first["units"][0],
        "attempted": sum(r["attempted"] for r in processes),
        "failed": sum(r["failed"] for r in processes),
        "sim_digest_pass1": first["sim_digest_pass1"],
        "probe": {"errors": probe["errors"], "worst": probe["worst"]},
    }
    if timed:
        entry["end_to_end"] = end_to_end(workload, timed, probe)
    if drift:
        # every process ran pass 1 from the same state: one more reading
        trace_out = traced_pass(
            workload, seed, quick,
            statistics.median(r["walls"][0] for r in processes), trace_path)
        pass1_wall = trace_out["pass1_wall_s"]
        require_same(workload, "sim_digest_pass1", [first, trace_out])
        entry["attempted"] += trace_out["attempted"]
        entry["failed"] += trace_out["failed"]
        entry["sim_digest"] = drift["sim_digest"]
        entry["drift_walls_s"] = drift["walls"]
        entry["traced_root_s"] = trace_out["wall"]
        entry["per_layer"] = per_layer(drift, pass1_wall, trace_out, probe)
        if not quick:       # at a tenth of the size no regime holds
            entry["regime"] = trace_out["regime"]
    return entry


def render(name: str, entry: dict, spec: dict) -> str:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"== {name}: {entry['rounds']} round(s), "
             f"{entry['units_per_pass']} {entry['unit_of_work']} per pass, "
             f"attempted {entry['attempted']}, failed {entry['failed']} =="]
    for name_, value in entry.get("end_to_end", {}).items():
        bound = bounds.get(name_)
        note = (f"{bound['better']} is better, bound {bound['bound']:.1%}"
                if bound else "absolute bound, see compare.py")
        if "samples" in value:
            note += (f"; {value['estimator']} of {len(value['samples'])} "
                     f"rounds, spread {spread(value):.1%}")
        lines.append(f"  {name_:<28}{value['value']:>16.6g} "
                     f"{value['unit']:<6} {note}")
    lines.append(f"  sim_digest_pass1            {entry['sim_digest_pass1']}")
    worst = entry["probe"]["worst"]
    lines.append(f"  worst probe: {worst} "
                 f"(|engine/interpreter - 1| = "
                 f"{entry['probe']['errors'][worst]:.4g})")
    for name_, value in entry.get("per_layer", {}).items():
        lines.append(f"  {name_:<28}{value['value']:>16.6g} {value['unit']}")
    for claim, holds in entry.get("regime", {}).items():
        lines.append(f"  regime: {'holds  ' if holds else 'BROKEN '} {claim}")
    return "\n".join(lines)


def driver_line(entry: dict, spec: dict, trace: int) -> str:
    source, names = (("per_layer", spec["per_layer"]) if trace
                     else ("end_to_end", spec["end_to_end"]))
    metrics = {m["name"]: {"value": entry[source][m["name"]]["value"],
                           "unit": entry[source][m["name"]]["unit"]}
               for m in names}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="m2bench: six steady-state workloads, end-to-end "
                    "metrics and a per-layer host-time breakdown")
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help=f"end-to-end rounds per workload = seconds / "
                             f"{ROUND_S:g}, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only "
                             "(five-pass round + traced pass); default: both")
    parser.add_argument("--quick", action="store_true",
                        help="every workload at ~1/10 size, one round, two "
                             "passes in the per-layer round")
    parser.add_argument("--out", default=os.path.join(HERE, "out",
                                                      "results.json"))
    args = parser.parse_args(argv)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    selected = [args.workload] if args.workload else names
    rounds = 1 if args.quick else max(1, int(args.seconds / ROUND_S))
    results = {
        "meta": {"seed": args.seed, "seconds": args.seconds,
                 "quick": args.quick, "nproc": os.cpu_count(),
                 "python": sys.version.split()[0],
                 "numpy": numpy.__version__},
        "workloads": {},
    }
    try:
        for name in selected:
            entry = measure(name, args.seed, args.quick, rounds, args.trace,
                            os.path.join(out_dir, f"{name}.trace.json"))
            results["workloads"][name] = entry
            print(render(name, entry, spec), flush=True)
    except BenchError as error:
        print(f"m2bench FAILED: {error}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"results written to {args.out}")
    if args.workload and args.trace is not None:
        print(driver_line(results["workloads"][args.workload], spec,
                          args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
