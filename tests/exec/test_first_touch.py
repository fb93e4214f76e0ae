"""The masked walk's first-touch fraction against its sorted-array reference.

``_PhaseWalk._sector_novelty`` keeps the sectors a launch has touched as a
set.  The reference is the form it replaced: a sorted array searched with
``np.isin`` and grown with ``np.union1d`` on every step.  Steps are what
``StepLog.sectors`` hands out (ascending, unique within a step) and repeat
sectors across steps.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, strategies as st

from repro.exec.simt import _PhaseWalk

SECTOR_BYTES = 32

steps_strategy = st.lists(
    st.lists(st.integers(0, 48), min_size=1, max_size=24, unique=True)
    .map(sorted),
    min_size=1, max_size=16)


def reference_fractions(steps):
    seen = None
    for step in steps:
        sectors = np.asarray(step, dtype=np.int64) * SECTOR_BYTES
        if seen is None:
            seen = sectors
            yield 1.0
            continue
        fresh = ~np.isin(sectors, seen, assume_unique=True)
        new = int(fresh.sum())
        if new:
            seen = np.union1d(seen, sectors[fresh])
        yield new / sectors.size


@given(steps_strategy)
def test_first_touch_fraction_equals_the_reference(steps):
    current = []
    walk = SimpleNamespace(
        memlog=SimpleNamespace(sectors=lambda sector_bytes: current[-1]),
        _l2_config=SimpleNamespace(sector_bytes=SECTOR_BYTES),
        _seen_sectors=set())
    fractions = []
    for step in steps:
        current.append(np.asarray(step, dtype=np.int64) * SECTOR_BYTES)
        fractions.append(_PhaseWalk._sector_novelty(walk))
    assert fractions == list(reference_fractions(steps))
