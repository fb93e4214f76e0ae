"""The sim-clock goldens: one registry, ``tests/goldens.json``, keyed by
test id.  A test passes its computed value to ``golden``; a moved or an
unrecorded value fails with the id and both values, ready to paste."""

import json
from pathlib import Path

import pytest

REGISTRY = Path(__file__).with_name("goldens.json")


@pytest.fixture
def golden(request):
    """Assert that a computed value equals the one recorded for this test."""
    nodeid = request.node.nodeid

    def check(computed):
        recorded = json.loads(REGISTRY.read_text()).get(nodeid)
        assert computed == recorded, (
            f"{nodeid}: recorded {json.dumps(recorded)}, "
            f"computed {json.dumps(computed, sort_keys=True)}")
    return check
