"""The golden registry, ``tests/goldens.json``: every key is a collected
test id, the file is in its canonical form, and the ``golden`` fixture
fails on an id the registry does not hold."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REGISTRY = Path(__file__).with_name("goldens.json")
ROOT = REGISTRY.parent.parent


def _registry():
    return json.loads(REGISTRY.read_text())


def test_every_key_is_a_collected_test_id():
    keys = set(_registry())
    files = sorted({key.split("::")[0] for key in keys})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert keys - set(collected) == set()


def test_registry_is_in_canonical_form():
    text = REGISTRY.read_text()
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


def test_unrecorded_id_fails_with_the_computed_value(request, golden):
    assert request.node.nodeid not in _registry()
    with pytest.raises(AssertionError) as failure:
        golden({"part": "0123abcd"})
    message = str(failure.value)
    assert request.node.nodeid in message
    assert 'recorded null, computed {"part": "0123abcd"}' in message
