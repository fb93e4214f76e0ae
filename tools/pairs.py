#!/usr/bin/env python3
"""Alternating parent/change pairs of one m2bench workload, with the verdict.

    python3 tools/pairs.py --parent ../parent --workload kv_mixed_serve
runs `python3 bench/run.py --workload W --seconds 20 --trace 0 --seed S` in
the parent tree and in this one, alternating which goes first, and prints
one verdict per end-to-end metric of `BENCHMARK.json`, in the direction its
`better` names: each side's readings, median and quartiles, the pairs the
change won, and the ROADMAP rule for a claimed gain (>= 10 pairs, >= 9/10
won, medians apart by more than the parent's quartile distance,
`sim_digest_pass1` equal on every reading): "holds" or "not shown".  Each
verdict also says whether the change's median is inside the metric's bound
of the parent's.  When the digests differ, each side's distinct digests
follow.  Every reading also counts the minor page faults of `bench/run.py`
and its workers (the `RUSAGE_CHILDREN` `ru_minflt` delta around it): the
pair lines show them and each side's median follows the verdicts, so a
change that makes the program fault pages in again shows beside its
cost.  Both trees are byte-compiled first, so neither side's `setup_s`
pays for stale or missing `.pyc` files.  Exit 1 on unequal digests or a
failed run, else 0 (a gain not shown, or a cost over its bound, is a
verdict, not an error).  `--quick`: CI self-test size.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
#: name -> (better, bound) of every end-to-end metric
METRICS = {metric["name"]: (metric["better"], metric["bound"])
           for metric in json.loads(
               (HERE / "BENCHMARK.json").read_text())["end_to_end"]}


def compile_tree(tree: Path) -> None:
    """Write fresh `.pyc` files for `src` and `bench` (a shell exporting
    PYTHONDONTWRITEBYTECODE would otherwise leave a clone without them)."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=tree, env=env, check=True)


def reading(tree: Path, args,
            out: Path) -> tuple[dict[str, float], str, int]:
    """One `bench/run.py` run: its end-to-end metrics, `sim_digest_pass1`
    and minor page faults."""
    size = ["--quick"] if args.quick else ["--seconds", "20"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "0", "--out", str(out), *size],
        cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if done.returncode:
        sys.exit(f"bench/run.py failed in {tree}:\n{done.stderr}")
    line = json.loads(done.stdout.splitlines()[-1])
    if line["failed"]:
        sys.exit(f"{line['failed']} failed operations in {tree}")
    entry = json.loads(out.read_text())["workloads"][args.workload]
    return ({name: line["metrics"][name]["value"] for name in METRICS},
            entry["sim_digest_pass1"], faults)


def verdict(name: str, readings: dict, same: bool, pairs: int) -> str:
    """One metric's line: medians, quartiles, wins, gain and bound."""
    better, bound = METRICS[name]
    sign = 1 if better == "higher" else -1
    values = {side: [metrics[name] for metrics in taken]
              for side, taken in readings.items()}
    quartiles = {side: (statistics.quantiles(series, n=4, method="inclusive")
                        if pairs > 1 else series * 3)
                 for side, series in values.items()}
    (p_q1, p_median, p_q3), (_, c_median, _) = (quartiles["parent"],
                                                quartiles["change"])
    wins = sum(sign * (c - p) > 0
               for p, c in zip(values["parent"], values["change"]))
    gain = (same and pairs >= 10 and wins >= 0.9 * pairs
            and sign * (c_median - p_median) > p_q3 - p_q1)
    ratio = c_median / p_median if p_median else float("nan")
    inside = sign * (c_median - p_median) >= -bound * abs(p_median)
    sides = "\n".join(
        f"  {side}: median {quartiles[side][1]:.4g}  q1-q3 "
        f"{quartiles[side][0]:.4g}-{quartiles[side][2]:.4g}  "
        + " ".join(f"{value:.4g}" for value in values[side])
        for side in ("parent", "change"))
    return (f"{name} ({better} is better)\n{sides}\n"
            f"  wins {wins}/{pairs}  ratio {ratio:.3f}x  "
            f"gain {'holds' if gain else 'not shown'}  "
            f"bound {bound:.1%}: {'inside' if inside else 'OVER'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": HERE}
    for tree in trees.values():
        compile_tree(tree)
    readings = {side: [] for side in trees}
    digests = {side: set() for side in trees}
    faults = {side: [] for side in trees}
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(args.pairs):
            for side in sorted(trees, reverse=bool(pair % 2)):
                metrics, digest, faulted = reading(
                    trees[side], args, Path(scratch, f"{side}.json"))
                readings[side].append(metrics)
                digests[side].add(digest)
                faults[side].append(faulted)
            print(f"pair {pair + 1}: " + "  ".join(
                f"{name} {readings['parent'][-1][name]:.4g} -> "
                f"{readings['change'][-1][name]:.4g}" for name in METRICS)
                + f"  minor_faults {faults['parent'][-1]} -> "
                f"{faults['change'][-1]}", flush=True)
    same = len(set.union(*digests.values())) == 1
    print(f"digests {'equal' if same else 'DIFFER'}")
    for name in METRICS:
        print(verdict(name, readings, same, args.pairs))
    print("minor_faults per reading (bench/run.py and its workers): "
          + "  ".join(f"{side} median {statistics.median(faults[side]):.0f}"
                      for side in ("parent", "change")))
    if not same:
        # one digest per side: the change moved the sim deterministically;
        # more than one on a side: that side does not reproduce
        for side, seen in digests.items():
            print(f"{side} sim_digest_pass1: {' '.join(sorted(seen))}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
