"""Compare two ``results.json`` files of ``run.py``: A is the parent, B the
change.

    python3 bench/compare.py A.json B.json

Per workload and end-to-end metric the bound from ``BENCHMARK.json`` is
applied to B's worsening against A.  One row per workload.  A cell reads

``ok``          B is no worse than A by more than the bound
``better``      B is better than A by more than the bound
``REGRESSION``  B is worse than A by more than the bound
``unresolved``  the value of either side is not resolved to within the
                bound by its own run (``run.spread``: for a fastest-of-N
                time, the two fastest rounds differ by more than the
                bound), so "no worse" cannot be told from noise; reported
                instead of ``ok`` unless every round of B beats every
                round of A
``MISSING``     the workload or metric is absent from A or from B

``failed_share`` regresses on any increase and ``sim_err_vs_ref`` on an
increase of more than 0.005 (absolute: both are 0 or near 0, where a
relative bound means nothing).  Exit code 1 on any regression or missing
entry.
"""

from __future__ import annotations

import json
import sys

from run import load_spec, spread

SIM_ERR_SLACK = 0.005
MISSING = "MISSING"


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Classify B against A for a metric where ``better`` is the good
    direction and ``bound`` the tolerated relative worsening."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    if worse_by > bound:
        return "REGRESSION"
    if max(spread(a), spread(b)) > bound:
        # samples are host seconds or MB: lower is better for all of them
        b_wins = max(b["samples"]) < min(a["samples"])
        return "better" if b_wins else "unresolved"
    return "better" if worse_by < -bound else "ok"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[list[str]], bool]:
    bounded = spec["end_to_end"]
    header = (["workload"] + [m["name"] for m in bounded]
              + ["failed_share", "sim_err_vs_ref", "sim_digest"])
    rows = [header]
    for name in (w["name"] for w in spec["workloads"]):
        ea = a["workloads"].get(name, {}).get("end_to_end")
        eb = b["workloads"].get(name, {}).get("end_to_end")
        if ea is None or eb is None:
            side = "A and B" if ea is eb else "A" if ea is None else "B"
            rows.append([name, f"{MISSING} in {side}"]
                        + [""] * (len(header) - 2))
            continue
        row = [name]
        for m in bounded:
            va, vb = ea.get(m["name"]), eb.get(m["name"])
            if va is None or vb is None:
                row.append(MISSING)
                continue
            cell = verdict(va, vb, m["better"], m["bound"])
            row.append(f"{cell} ({vb['value'] / va['value'] - 1.0:+.1%})")
        row.append("REGRESSION" if eb["failed_share"]["value"]
                   > ea["failed_share"]["value"] else "ok")
        sa, sb = ea["sim_err_vs_ref"]["value"], eb["sim_err_vs_ref"]["value"]
        row.append("REGRESSION" if sb > sa + SIM_ERR_SLACK
                   else "identical" if sb == sa else "ok")
        wa, wb = a["workloads"][name], b["workloads"][name]
        # the five-pass digest when both runs made the per-layer round
        key = ("sim_digest" if "sim_digest" in wa and "sim_digest" in wb
               else "sim_digest_pass1")
        row.append("identical" if wa[key] == wb[key] else "differs")
        rows.append(row)
    failed = any(cell.startswith(("REGRESSION", MISSING))
                 for row in rows[1:] for cell in row)
    return rows, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    rows, failed = compare(a, b, load_spec())
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
