"""Benchmark harness configuration.

Each benchmark reproduces one paper figure/table: it runs the experiment
once (simulations are deterministic — statistical repetition adds nothing)
and prints the regenerated rows next to the paper's reference values.

Everything in this directory is marked ``slow`` (see ``pytest.ini``): the
tier-1 default run deselects it.  Run with::

    pytest -m slow benchmarks/
"""

import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    # This hook sees the whole session's items; only mark ours.
    for item in items:
        if _BENCH_DIR in pathlib.Path(item.fspath).parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def once(capsys):
    """Run an experiment once and emit its table (outside pytest's
    capture, so it lands in the bench log)."""

    def runner(fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        with capsys.disabled():
            print()
            print(result.render())
        return result

    return runner
