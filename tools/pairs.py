#!/usr/bin/env python3
"""Alternating parent/change pairs of one m2bench workload, with the verdict.

    python3 tools/pairs.py --parent ../parent --workload kv_mixed_serve
runs `python3 bench/run.py --workload W --seconds 20 --trace 0 --seed S` in
the parent tree and in this one, alternating which goes first, and prints
each side's `units_per_wall_s` readings, median and quartiles, the pairs the
change won and the ROADMAP rule for a claimed gain: >= 10 pairs, >= 9/10 won,
medians apart by more than the parent's quartile distance, `sim_digest_pass1`
equal on every reading.  What a gain may have been bought with is read from
the same runs: each side's median `setup_s` and `peak_rss_mb`, and whether the
change's is inside the `BENCHMARK.json` bound.  Exit 1 on unequal digests or a
failed run, else 0 (a gain not shown, or a cost over its bound, is a verdict,
not an error).  `--quick`: CI self-test size.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
RATE = "units_per_wall_s"
COSTS = ("setup_s", "peak_rss_mb")      # lower is better, bounded


def reading(tree: Path, args, out: Path) -> tuple[dict[str, float], str]:
    size = ["--quick"] if args.quick else ["--seconds", "20"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "0", "--out", str(out), *size],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"bench/run.py failed in {tree}:\n{done.stderr}")
    line = json.loads(done.stdout.splitlines()[-1])
    if line["failed"]:
        sys.exit(f"{line['failed']} failed operations in {tree}")
    entry = json.loads(out.read_text())["workloads"][args.workload]
    return ({name: line["metrics"][name]["value"] for name in (RATE, *COSTS)},
            entry["sim_digest_pass1"])


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
    readings = {side: [] for side in trees}
    digests = set()
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(args.pairs):
            for side in sorted(trees, reverse=bool(pair % 2)):
                metrics, digest = reading(trees[side], args,
                                          Path(scratch, f"{side}.json"))
                readings[side].append(metrics)
                digests.add(digest)
            print(f"pair {pair + 1}: parent {readings['parent'][-1][RATE]:.4g}"
                  f"  change {readings['change'][-1][RATE]:.4g}", flush=True)
    rates = {side: [metrics[RATE] for metrics in taken]
             for side, taken in readings.items()}
    quartiles = {side: (statistics.quantiles(values, n=4, method="inclusive")
                        if args.pairs > 1 else values * 3)
                 for side, values in rates.items()}
    for side, (q1, median, q3) in quartiles.items():
        print(f"{side}: median {median:.4g}  q1-q3 {q1:.4g}-{q3:.4g}  "
              + " ".join(f"{rate:.4g}" for rate in rates[side]))
    wins = sum(c > p for p, c in zip(rates["parent"], rates["change"]))
    (p_q1, p_median, p_q3), (_, c_median, _) = quartiles.values()
    same = len(digests) == 1
    gain = (same and args.pairs >= 10 and wins >= 0.9 * args.pairs
            and c_median - p_median > p_q3 - p_q1)
    print(f"wins {wins}/{args.pairs}  ratio {c_median / p_median:.2f}x  "
          f"digests {'equal' if same else 'DIFFER'}  "
          f"gain {'holds' if gain else 'not shown'}")
    bounds = {metric["name"]: metric["bound"] for metric in json.loads(
        (HERE / "BENCHMARK.json").read_text())["end_to_end"]}
    for name in COSTS:
        parent, change = (statistics.median(m[name] for m in readings[side])
                          for side in ("parent", "change"))
        inside = change <= parent * (1 + bounds[name])
        print(f"{name}: parent {parent:.4g}  change {change:.4g}  "
              f"{change / parent - 1:+.1%} (bound +{bounds[name]:.0%}: "
              f"{'inside' if inside else 'OVER'})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
