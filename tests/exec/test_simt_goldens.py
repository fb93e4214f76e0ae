"""Golden digests of masked-walk launches, bit for bit.

`tests/exec/test_simt_equivalence.py` compares the masked walk with the
interpreter on bytes and bounds its timing by a factor; neither sees a
last-bit change in a finish time, a stats counter that moved by one, or a
recorded memory step that a replay would verify differently.  These
digests can: each is a sha256 over everything one kernel run leaves
behind — the bytes of physical memory and of the scratchpads, the
instance's ``runtime_ns``, the full stats snapshot, and every recorded
:class:`~repro.exec.trace_cache.MemStep` (op, size, vaddrs, lanes,
scratchpad routing, paddrs) of each masked plan the run committed.  They
were recorded from the walk whose scratchpad shadows copied each written
unit's whole row and whose grouped AMO kept per-element old values for
every step.
"""

import hashlib

import numpy as np
import pytest

from repro.exec.simt import SimtPlan
from repro.host.api import pack_args
from repro.workloads import graph, histogram, spmv
from repro.workloads.base import make_platform

GOLDENS = {
    "amo-old-values":
        "bfd8a51413ca6c2f134d6ab62a6b7712d2bf473154f0ff8d18255e9d2f7a3fa4",
    "histo256-8192":
        "bf888fe82ec3727940b500e1ea87288427db6300bc2e01ca5efbefd1ec06f17e",
    "histo4096-16384":
        "2c99fad039aeb6357a60f474154e0d695d95c20877b9bcb230b864c9f2fe1a6a",
    "histo4096-4096":
        "c56aec8084ac41cfa69bb5f8dbe044ac3abf93a1e67e36b8bb7b63c74d462907",
    "pagerank-probe":
        "51ff09f26acfeae0a5504ca040ecb77881636f7cc421e678c2ba9162b0eb6c35",
    "spmv-512x8":
        "877b47f8ecb4e6b49e54cf4ac108897d61ae61fe6b1a23b37a92c889dede05d3",
}

#: Body µthreads of the scalar-AMO kernel: 8 per NDP unit.
AMO_LANES = 256

#: Scalar AMOs in both address spaces.  The initializer seeds each
#: lane's scratchpad cell; each lane's old values from that cell and from
#: its own global cell are stored, so a later instruction reads them (the
#: walk's "consumed" path, which must stay uncontended).  The shared-cell
#: max and or are contended with the old value discarded; the shared-cell
#: add and min are contended and write their old values to registers
#: nothing reads.
AMO_KERNEL = """
.init
    li   x4, 8
    bgeu x2, x4, init_done
    slli x5, x2, 3
    li   x6, 0x10000100
    add  x5, x6, x5
    slli x7, x1, 4
    add  x7, x7, x2
    sd   x7, 0(x5)         // cell = unit * 16 + slot
init_done:
    ret
.body
    ld   x20, 0(x3)        // private global cells (8 B per lane)
    ld   x21, 8(x3)        // out (32 B per lane)
    ld   x22, 16(x3)       // shared global cells
    srli x24, x2, 5        // lane index
    srli x4, x24, 5        // lane index within its unit
    slli x4, x4, 3
    li   x5, 0x10000100
    add  x4, x5, x4        // this lane's scratchpad cell
    addi x6, x24, 3
    amoadd.d x7, x6, (x4)
    slli x9, x24, 3
    add  x9, x20, x9
    amomin.d x10, x24, (x9)
    andi x11, x24, 7
    slli x11, x11, 3
    add  x11, x22, x11
    amomax.d x0, x24, (x11)
    andi x12, x24, 3
    slli x12, x12, 2
    add  x12, x22, x12
    amoadd.w x13, x6, 64(x12)
    andi x15, x24, 3
    slli x15, x15, 3
    add  x15, x22, x15
    amomin.d x16, x6, 96(x15)
    andi x17, x24, 1
    slli x17, x17, 3
    add  x17, x22, x17
    amoor.d x0, x6, 80(x17)
    add  x14, x21, x2
    sd   x7, 0(x14)
    sd   x10, 8(x14)
    ret
"""


def _digest(platform, runtime_ns: float, plans) -> str:
    device = platform.device
    sha = hashlib.sha256()
    pages = device.physical._pages
    for index in sorted(pages):
        sha.update(index.to_bytes(8, "little"))
        sha.update(bytes(pages[index]))
    sha.update(device.scratchpads.tobytes())
    sha.update(np.float64(runtime_ns).tobytes())
    sha.update(repr(sorted(platform.stats.snapshot().items())).encode())
    for plan in plans:
        for profile in plan.profiles:
            for step in profile.steps:
                sha.update(repr((step.op, step.size)).encode())
                for field in (step.vaddrs, step.lanes, step.spad,
                              step.paddrs):
                    if isinstance(field, np.ndarray):
                        sha.update(field.dtype.str.encode())
                        sha.update(field.tobytes())
                    else:
                        sha.update(repr(field).encode())
    return sha.hexdigest()


def run_case(case: str) -> str:
    """Run ``case`` on a fresh platform; its digest over every masked
    plan the run committed, in commit order."""
    plans = []
    commit = SimtPlan.commit

    def recording_commit(plan):
        plans.append(plan)
        commit(plan)

    SimtPlan.commit = recording_commit
    try:
        platform, runtime_ns = CASES[case]()
    finally:
        SimtPlan.commit = commit
    assert plans
    return _digest(platform, runtime_ns, plans)


def _histo(elements: int, nbins: int):
    platform = make_platform()
    result = histogram.run_ndp(
        platform, histogram.generate(elements, nbins, salt=1))
    assert result.correct
    return platform, result.runtime_ns


def _amo_old_values():
    platform = make_platform()
    runtime = platform.runtime
    gen = np.random.default_rng(11)
    private = runtime.alloc_array(
        gen.integers(0, 2 * AMO_LANES, AMO_LANES).astype(np.int64))
    out = runtime.alloc(AMO_LANES * 32)
    shared = runtime.alloc_array(gen.integers(0, 100, 16).astype(np.int64))
    instance = runtime.run_kernel(
        AMO_KERNEL, out, out + AMO_LANES * 32,
        args=pack_args(private, out, shared), scratchpad_bytes=0x1000)
    assert platform.stats.get("exec.simt_launches") == 1
    assert platform.stats.get("exec.batched_fallbacks") == 0
    return platform, instance.runtime_ns


def _graph(module, runner: str, *args):
    platform = make_platform()
    result = getattr(module, runner)(platform, module.generate(*args, salt=2))
    assert result.correct
    return platform, result.runtime_ns


CASES = {
    "histo4096-4096": lambda: _histo(1 << 12, 4096),
    "histo4096-16384": lambda: _histo(1 << 14, 4096),
    "histo256-8192": lambda: _histo(1 << 13, 256),
    "amo-old-values": _amo_old_values,
    # at the sweep's probe size (128 x 4) SPMV has one µthread per unit
    # and runs on the point engine; 512 x 8 is its sweep size
    "spmv-512x8": lambda: _graph(spmv, "run_ndp", 512, 8),
    "pagerank-probe": lambda: _graph(graph, "run_ndp_pagerank", 256, 8),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_masked_walk_matches_its_golden(case):
    assert run_case(case) == GOLDENS[case]
