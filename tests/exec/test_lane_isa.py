"""Per-mnemonic differential for the single lane-ISA implementation.

Both vectorized walks execute register-to-register instructions and
scalar / unit-stride vector loads and stores through
:class:`repro.isa.vectorops.LaneISA`.  For every mnemonic that class
dispatches on, a minimal kernel runs on the interpreter and on the
batched backend at n = 64 (launch-uniform walk) and n = 48 (masked walk)
and must leave byte-identical output memory — with counters proving each
n really took the walk it is meant to cover.  Operands come in both
flavours the uniform walk distinguishes: per-µthread (loaded from the
pool slice) and launch-uniform (loaded from the argument block).
"""

import numpy as np
import pytest

from repro.host.api import pack_args
from repro.isa import vectorops as vo
from repro.workloads.base import make_platform

STRIDE = 32           # bytes of input per µthread (one vector register)
OUT_STRIDE = 128      # bytes of output per µthread (four result slots)
_UNWRITTEN = 0xA5     # fill byte of the output buffer before the launch

#: (mnemonics, instruction lines using ``{m}``, result registers, data kind).
#: Inputs: x7/x8, f1/f2, v1/v2 are per-µthread, x9/f9 launch-uniform;
#: x1 is the µthread's input slice, x3 the argument block (launch-uniform
#: addresses; its word at 32 is negative) and x6 its output slice.
_GROUPS = [
    # sign vs zero extension, from per-µthread and launch-uniform addresses
    (list(vo.LOAD_SIGNED) + list(vo.LOAD_UNSIGNED),
     ["{m} x10, 8(x1)", "{m} x11, 32(x3)"], ["x10", "x11"], "int"),
    (list(vo.STORES), ["{m} x7, 0(x6)", "{m} x9, 8(x6)"], [], "int"),
    # FP bit casts: f32 widens on load and narrows on store
    (["fld"], ["{m} f3, 8(x1)", "{m} f4, 24(x3)"], ["f3", "f4"], "float"),
    (["flw"], ["{m} f3, 4(x1)", "{m} f4, 28(x3)", "fsw f3, 96(x6)"],
     ["f3", "f4"], "float32"),
    (list(vo.FP_STORES), ["{m} f1, 0(x6)", "{m} f9, 8(x6)"], [], "float"),
    (list(vo.INT_BINOPS) + ["addw", "mulw"],
     ["{m} x10, x7, x8", "{m} x11, x7, x9"], ["x10", "x11"], "int"),
    (list(vo.INT_IMMOPS), ["{m} x10, x7, 5", "{m} x11, x9, 5"],
     ["x10", "x11"], "int"),
    (["li", "lui"], ["{m} x10, 0x1234"], ["x10"], "int"),
    (["mv", "neg", "seqz", "snez"], ["{m} x10, x7", "{m} x11, x9"],
     ["x10", "x11"], "int"),
    (list(vo.FP_BINOPS), ["{m} f3, f1, f2", "{m} f4, f1, f9"],
     ["f3", "f4"], "float"),
    (list(vo.FP_COMPARES), ["{m} x10, f1, f2", "{m} x11, f1, f9"],
     ["x10", "x11"], "float"),
    (["fmadd.d"], ["{m} f3, f1, f2, f9"], ["f3"], "float"),
    (["fsqrt.d"], ["fmul.d f3, f1, f1", "{m} f4, f3", "{m} f5, f9"],
     ["f4", "f5"], "float"),
    (["fmv.d"], ["{m} f3, f1", "{m} f4, f9"], ["f3", "f4"], "float"),
    (["fmv.x.d", "fcvt.l.d"], ["{m} x10, f1", "{m} x11, f9"],
     ["x10", "x11"], "float"),
    (["fmv.d.x", "fcvt.d.l", "fcvt.s.l"], ["{m} f3, x7", "{m} f4, x9"],
     ["f3", "f4"], "int"),
    (list(vo.V_INT_BINOPS) + ["vmand.mm", "vmor.mm"],
     ["{m} v3, v1, v2"], ["v3"], "vint"),
    (["vmacc.vv"], ["vmv.v.v v3, v2", "{m} v3, v1, v2"], ["v3"], "vint"),
    (list(vo.V_INT_SCALAR) + list(vo.V_INT_COMPARES),
     ["{m} v3, v1, x7", "{m} v4, v1, x9"], ["v3", "v4"], "vint"),
    (list(vo.V_INT_IMM), ["{m} v3, v1, 3"], ["v3"], "vint"),
    (["vmerge.vxm"],
     ["vmslt.vx v0, v2, x9", "{m} v3, v1, x7", "{m} v4, v1, x9"],
     ["v3", "v4"], "vint"),
    (["vmerge.vim"], ["vmslt.vx v0, v2, x9", "{m} v3, v1, 7"],
     ["v3"], "vint"),
    (["vmv.v.i"], ["{m} v3, 7"], ["v3"], "vint"),
    (["vmv.v.x"], ["{m} v3, x7", "{m} v4, x9"], ["v3", "v4"], "vint"),
    (["vmv.v.v"], ["{m} v3, v1"], ["v3"], "vint"),
    (["vid.v"], ["{m} v3"], ["v3"], "vint"),
    # v3: per-µthread register, v4: never written, v5: launch-uniform
    # register that a per-µthread scalar has to widen
    (["vmv.s.x"],
     ["vmv.v.v v3, v1", "{m} v3, x7", "{m} v4, x9",
      "vmv.v.i v5, 1", "{m} v5, x7"], ["v3", "v4", "v5"], "vint"),
    (["vmv.x.s"], ["{m} x10, v1", "{m} x11, v9"], ["x10", "x11"], "vint"),
    (list(vo.V_FP_BINOPS), ["{m} v3, v1, v2"], ["v3"], "vfloat"),
    (["vfmacc.vv"], ["vmv.v.v v3, v2", "{m} v3, v1, v2"], ["v3"], "vfloat"),
    (list(vo.V_FP_SCALAR) + list(vo.V_FP_COMPARES),
     ["{m} v3, v1, f1", "{m} v4, v1, f9"], ["v3", "v4"], "vfloat"),
    (["vfmacc.vf"],
     ["vmv.v.v v3, v2", "{m} v3, v1, f1", "vmv.v.v v4, v2",
      "{m} v4, v1, f9"], ["v3", "v4"], "vfloat"),
    (["vfmv.v.f"], ["{m} v3, f1", "{m} v4, f9"], ["v3", "v4"], "vfloat"),
    (["vfmv.f.s"], ["{m} f3, v1", "{m} f4, v9"], ["f3", "f4"], "vfloat"),
    (["vredsum.vs", "vredmax.vs", "vredmin.vs"],
     ["{m} v3, v1, v2"], ["v3"], "vint"),
    (["vfredusum.vs", "vfredmax.vs"],
     ["{m} v3, v1, v2"], ["v3"], "vfloat"),
]

_CASES = [
    pytest.param(m, lines, outs, kind, sew, id=f"{m}-e{sew}")
    for mnemonics, lines, outs, kind in _GROUPS
    for m in mnemonics
    for sew in ((64, 32) if kind.startswith("v") else (64,))
]


def _kernel(mnemonic, lines, outs, kind, sew):
    wide = sew == 64
    narrow = kind == "float32" or (kind == "vfloat" and not wide)
    fload = "flw" if narrow else "fld"
    vle, vse = f"vle{sew}.v", f"vse{sew}.v"
    body = [
        ".body",
        "ld   x20, 0(x3)", "ld   x22, 8(x3)",
        "ld   x9, 16(x3)", "fld  f9, 24(x3)",
        "add  x5, x20, x2",
        "slli x14, x2, 2", "add  x6, x22, x14",
        "ld   x7, 0(x1)", "ld   x8, 0(x5)",
        f"{fload}  f1, 0(x1)", f"{fload}  f2, 0(x5)",
    ]
    if not wide:
        body += ["li   x12, 8", "vsetvli x13, x12, e32"]
    if kind.startswith("v"):
        body += [f"{vle} v1, (x1)", f"{vle} v2, (x5)"]
    body += [line.format(m=mnemonic) for line in lines]
    for slot, reg in enumerate(outs):
        store = {"x": "sd   {r}, 0(x15)", "f": "fsd  {r}, 0(x15)",
                 "v": vse + " {r}, (x15)"}[reg[0]]
        body += [f"addi x15, x6, {slot * STRIDE}", store.format(r=reg)]
    body.append("ret")
    return "\n    ".join(body) + "\n"


def _inputs(kind, sew, n, seed):
    gen = np.random.default_rng(seed)
    if kind in ("float", "float32", "vfloat"):
        narrow = kind == "float32" or (kind == "vfloat" and sew == 32)
        dtype = np.float32 if narrow else np.float64
        count = n * STRIDE // np.dtype(dtype).itemsize
        return [gen.normal(0.0, 1000.0, count).astype(dtype)
                for _ in range(2)]
    a, b = (gen.integers(-(1 << 62), 1 << 62, n * STRIDE // 8,
                         dtype=np.int64) for _ in range(2))
    # RISC-V division corners and small shift amounts, in lane 0..2's words
    a[0], b[0] = np.iinfo(np.int64).min, -1
    a[4], b[4] = 12345, 0
    a[8], b[8] = -77, 5
    return [a, b]


def _run(backend, source, kind, sew, n):
    platform = make_platform(backend=backend)
    runtime = platform.runtime
    a, b = _inputs(kind, sew, n, seed=n)
    addr_a = runtime.alloc_array(a)
    addr_b = runtime.alloc_array(b)
    addr_out = runtime.alloc_array(
        np.full(n * OUT_STRIDE, _UNWRITTEN, dtype=np.uint8))
    args = (pack_args(addr_b, addr_out, 3) + np.float64(1.5).tobytes()
            + pack_args(-3))
    runtime.run_kernel(source, addr_a, addr_a + n * STRIDE, args=args)
    out = runtime.read_array(addr_out, np.uint8, n * OUT_STRIDE)
    return out, platform.stats


_WALKS = ((64, "exec.batched_launches"), (48, "exec.simt_launches"))


def _both_walks(source, kind, sew, sizes=_WALKS):
    """Yield (n, input a, output rows) per walk, checked byte for byte
    against the interpreter and for the walk that must have run."""
    for n, took in sizes:
        expected, _ = _run("interpreter", source, kind, sew, n)
        produced, stats = _run("batched", source, kind, sew, n)
        assert np.array_equal(produced, expected), f"n={n}"
        assert stats.get(took) == 1
        assert sum(stats.get(walk) for _, walk in _WALKS) == 1
        assert stats.get("exec.batched_fallbacks") == 0
        a = _inputs(kind, sew, n, seed=n)[0]
        yield n, a.view(np.uint8).reshape(n, STRIDE), produced.reshape(
            n, OUT_STRIDE)


@pytest.mark.parametrize("mnemonic, lines, outs, kind, sew", _CASES)
def test_walks_match_interpreter(mnemonic, lines, outs, kind, sew):
    source = _kernel(mnemonic, lines, outs, kind, sew)
    for _n, _a, out in _both_walks(source, kind, sew):
        assert (out != _UNWRITTEN).any(), "kernel stored nothing"


@pytest.mark.parametrize("sew", [8, 16, 32, 64])
def test_unit_stride_vector_memory_honours_vl(sew):
    """``vl == 0`` moves nothing; ``vl < VLMAX`` moves exactly ``vl``
    elements and leaves the bytes past them alone."""
    size = sew // 8
    source = _kernel("", [
        "li   x12, 0", f"vsetvli x13, x12, e{sew}",
        f"vle{sew}.v v3, (x1)", f"vse{sew}.v v3, (x6)",
        "li   x12, 3", f"vsetvli x13, x12, e{sew}",
        f"vle{sew}.v v4, (x1)", "addi x15, x6, 32", f"vse{sew}.v v4, (x15)",
        "sd   x13, 64(x6)",
    ], [], "int", 64)
    for n, a, out in _both_walks(source, "int", 64):
        assert (out[:, :32] == _UNWRITTEN).all()
        assert np.array_equal(out[:, 32:32 + 3 * size], a[:, :3 * size])
        assert (out[:, 32 + 3 * size:64] == _UNWRITTEN).all()
        assert (out[:, 64:72].view(np.int64) == 3).all()


def test_masked_stores_leave_inactive_lanes_untouched():
    source = _kernel("", [
        "andi x10, x7, 1", "beqz x10, skip",       # per-µthread predicate
        "sd   x7, 0(x6)", "fsd  f1, 8(x6)",
        "addi x15, x6, 32", "vse64.v v1, (x15)",
        "skip:",
    ], [], "vint", 64)
    simt = "exec.simt_launches"     # divergent: the masked walk at any n
    for n, a, out in _both_walks(source, "vint", 64, ((64, simt), (48, simt))):
        active = (a[:, 0] & 1).astype(bool)
        assert active.any() and not active.all()
        assert (out[~active] == _UNWRITTEN).all()
        assert np.array_equal(out[active, 32:64], a[active])


def test_every_dispatched_table_is_covered():
    covered = {m for mnemonics, *_ in _GROUPS for m in mnemonics}
    for table in (vo.INT_BINOPS, vo.INT_IMMOPS, vo.FP_BINOPS,
                  vo.FP_COMPARES, vo.V_INT_BINOPS, vo.V_INT_SCALAR,
                  vo.V_INT_IMM, vo.V_FP_BINOPS, vo.V_FP_SCALAR,
                  vo.V_INT_COMPARES, vo.V_FP_COMPARES, vo.LOAD_SIGNED,
                  vo.LOAD_UNSIGNED, vo.STORES, vo.FP_LOADS, vo.FP_STORES):
        assert set(table) <= covered
