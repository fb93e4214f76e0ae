"""Importing ``repro`` sets the heap policy the L2/DRAM charge relies on.

glibc returns a freed block of 128 KiB or more to the kernel (``munmap``
or a heap trim), so each fresh numpy temporary of that size is faulted
in again, page by page.  After ``import repro`` the heap keeps them.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

# the second of two rounds that each hold twelve fresh 128 KiB temporaries
# eight times over, then free them; prints its minor faults
ROUNDS = """
import resource
import numpy as np
import repro

def one_round():
    for _ in range(8):
        held = [np.ones(16384) for _ in range(12)]
        del held

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts as Linux reports them")
def test_freed_numpy_temporaries_are_not_faulted_in_again():
    # a fresh interpreter: the suite's earlier allocations move glibc's
    # dynamic thresholds
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", ROUNDS], env=env,
                          capture_output=True, text=True, check=True)
    faults = int(done.stdout.split()[-1])
    assert faults <= 200, faults


def test_without_mallopt_the_helper_does_nothing():
    assert repro._keep_freed_heap(types.SimpleNamespace()) is None


def test_helper_sets_both_thresholds():
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
    repro._keep_freed_heap(libc)
    assert calls == [(-3, 4 << 20), (-1, 32 << 20)]
