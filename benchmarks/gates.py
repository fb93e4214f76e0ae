"""What ``smoke.py`` and ``figures.py`` share: a gate table and its loop.

Each script builds a payload on the sim clock, commits it as a golden
(``BENCH_smoke.json`` / ``FIDELITY.json``) and states the claims a
regenerated golden must still meet as rows of a ``GATES`` table:
``(dotted path, relation, bound, claim)``.  A ``str`` bound is a second
dotted path into the same payload.  The golden pins every value exactly;
a row is what may *not* move even in a PR that commits a new golden.
"""

from __future__ import annotations

import json
import operator

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


def write_and_gate(payload: dict, out_path: str, gates: tuple) -> dict:
    """Write the golden, then evaluate and print every gate row; all
    failing rows are listed before the non-zero exit."""
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    results = [check_gate(payload, gate) for gate in gates]
    for holds, line in results:
        print(f"  {'ok  ' if holds else 'FAIL'} {line}")
    failures = [line for holds, line in results if not holds]
    if failures:
        raise SystemExit(f"{len(failures)} of {len(results)} gates "
                         f"failed:\n  " + "\n  ".join(failures))
    return payload
