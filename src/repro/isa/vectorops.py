"""Vectorizable per-op semantics shared by the numpy execution engines.

The scalar executor (:mod:`repro.isa.executor`) defines what every
mnemonic *means* one µthread at a time.  The two vectorized walks — the
launch-uniform walk (:mod:`repro.exec.batched`) and the masked SIMT walk
(:mod:`repro.exec.simt`) — need the same semantics over numpy *lane
arrays*.  This module is the single home for them so the walks cannot
drift apart:

* bit-pattern helpers (sign extension, IEEE-754 reinterpretation,
  little-endian byte (de)serialization) that operate on uint64 element
  matrices,
* op tables keyed by mnemonic whose lambdas accept numpy arrays and
  reproduce the scalar executor's wrap/truncate/compare semantics
  element-wise — including the RISC-V division edge cases (divide by
  zero, INT64_MIN / -1) and ``mulhu``'s 128-bit upper half,
* the memory-op metadata (access sizes, AMO op/width/float tables)
  re-exported from the scalar executor so there is exactly one source of
  truth for what ``amoadd.w`` or ``fld`` does,
* :class:`LaneISA` — the op-class dispatch, the register-to-register
  instructions (scalar ALU, vector ALU, reductions) and the scalar /
  unit-stride vector loads and stores, written once against the
  register-file and memory primitives each walk supplies.

The helpers and tables are stateless and mask-agnostic: callers decide
which lanes participate and how results merge into register state.
"""

from __future__ import annotations

import numpy as np

# One source of truth for memory-op metadata: the scalar executor's
# tables, re-exported under their public names.
from repro.isa.encoding import OpClass
from repro.isa.executor import (  # noqa: F401  (re-exports)
    AMO_OPS,
    FP_LOADS,
    FP_STORES,
    LOAD_SIGNED,
    LOAD_UNSIGNED,
    STORES,
)
from repro.isa.registers import to_signed64
from repro.isa.vector import vlmax


class UnsupportedVectorOp(Exception):
    """An operation the vectorized primitives cannot express.

    Engines translate this into their per-launch fallback (the scalar
    interpreter executes the launch instead), so raising it is always
    safe — it can cost time, never correctness.
    """


# ---------------------------------------------------------------------------
# bit-pattern helpers (uint64 element matrices)
# ---------------------------------------------------------------------------


def sign_extend(patterns: np.ndarray, sew: int) -> np.ndarray:
    """uint64 element patterns -> sign-extended int64 values."""
    vals = patterns.astype(np.int64)
    if sew == 64:
        return vals
    shift = np.int64(64 - sew)
    vals <<= shift
    vals >>= shift
    return vals


def to_pattern(vals, sew: int) -> np.ndarray:
    """Wrap (possibly signed) values into uint64 patterns of width sew."""
    out = np.asarray(vals).astype(np.int64).view(np.uint64)
    if sew < 64:
        out = out & np.uint64((1 << sew) - 1)
    return out


def bits_to_float(patterns: np.ndarray, sew: int) -> np.ndarray:
    p = np.ascontiguousarray(patterns, dtype=np.uint64)
    if sew == 64:
        return p.view(np.float64)
    if sew == 32:
        return p.astype(np.uint32).view(np.float32).astype(np.float64)
    raise UnsupportedVectorOp(f"no float interpretation for SEW {sew}")


def float_to_bits(vals, sew: int) -> np.ndarray:
    v = np.ascontiguousarray(vals, dtype=np.float64)
    if sew == 64:
        return v.view(np.uint64).copy()
    if sew == 32:
        return np.ascontiguousarray(v.astype(np.float32)).view(
            np.uint32).astype(np.uint64)
    raise UnsupportedVectorOp(f"no float representation for SEW {sew}")


_LE_VIEW_DTYPES = {1: np.dtype("u1"), 2: np.dtype("<u2"),
                   4: np.dtype("<u4"), 8: np.dtype("<u8")}


def from_le_bytes(raw: np.ndarray) -> np.ndarray:
    """(..., size) uint8 -> (...,) uint64, little endian."""
    size = raw.shape[-1]
    dtype = _LE_VIEW_DTYPES.get(size)
    if dtype is not None:
        # one reinterpreting view + widen instead of a per-byte loop
        contiguous = np.ascontiguousarray(raw).reshape(-1, size)
        return contiguous.view(dtype).reshape(raw.shape[:-1]).astype(
            np.uint64)
    out = np.zeros(raw.shape[:-1], dtype=np.uint64)
    for i in range(size):
        out |= raw[..., i].astype(np.uint64) << np.uint64(8 * i)
    return out


def to_le_bytes(vals, size: int) -> np.ndarray:
    """(...,) uint64 -> (..., size) uint8, little endian."""
    v = np.asarray(vals, dtype=np.uint64)
    dtype = _LE_VIEW_DTYPES.get(size)
    if dtype is not None:
        narrowed = np.ascontiguousarray(v.astype(dtype)).reshape(-1)
        return narrowed.view(np.uint8).reshape(v.shape + (size,))
    out = np.empty(v.shape + (size,), dtype=np.uint8)
    for i in range(size):
        out[..., i] = (v >> np.uint64(8 * i)).astype(np.uint8)
    return out


def per_thread(arr: np.ndarray) -> np.ndarray:
    """Align a per-thread scalar (n,) with (..., vl) element matrices."""
    a = np.asarray(arr)
    return a[:, None] if a.ndim == 1 else a


# ---------------------------------------------------------------------------
# scalar integer ALU (int64 lane arrays, RISC-V wrap semantics)
# ---------------------------------------------------------------------------


def _np_srl(a, b):
    sh = (b & np.int64(63)).astype(np.uint64)
    return (a.astype(np.uint64) >> sh).astype(np.int64)


def _magnitudes(a: np.ndarray) -> np.ndarray:
    # |INT64_MIN| overflows int64; the wrap through uint64 lands on 2**63,
    # which is the correct magnitude.
    return np.abs(a).astype(np.uint64)


def _np_div(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    mag_a, mag_b = _magnitudes(a), _magnitudes(b)
    q = mag_a // np.maximum(mag_b, np.uint64(1))
    qi = q.astype(np.int64)
    res = np.where((a < 0) != (b < 0), -qi, qi)
    return np.where(b == 0, np.int64(-1), res)


def _np_rem(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return np.where(b == 0, a, a - _np_div(a, b) * b)


def _np_divu(a, b):
    ua = np.asarray(a).astype(np.uint64)
    ub = np.asarray(b).astype(np.uint64)
    q = ua // np.maximum(ub, np.uint64(1))
    return np.where(ub == 0, ~np.uint64(0), q).astype(np.int64)


def _np_remu(a, b):
    ua = np.asarray(a).astype(np.uint64)
    ub = np.asarray(b).astype(np.uint64)
    r = ua % np.maximum(ub, np.uint64(1))
    return np.where(ub == 0, ua, r).astype(np.int64)


def _np_mulhu(a, b):
    """Upper 64 bits of the unsigned 128-bit product, via 32-bit halves."""
    ua = np.asarray(a).astype(np.uint64)
    ub = np.asarray(b).astype(np.uint64)
    mask32 = np.uint64(0xFFFFFFFF)
    a_lo, a_hi = ua & mask32, ua >> np.uint64(32)
    b_lo, b_hi = ub & mask32, ub >> np.uint64(32)
    lo_lo = a_lo * b_lo
    mid1 = a_hi * b_lo + (lo_lo >> np.uint64(32))
    mid2 = a_lo * b_hi + (mid1 & mask32)
    high = a_hi * b_hi + (mid1 >> np.uint64(32)) + (mid2 >> np.uint64(32))
    return high.astype(np.int64)


INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & np.int64(63)),
    "srl": _np_srl,
    "sra": lambda a, b: a >> (b & np.int64(63)),
    "slt": lambda a, b: (a < b).astype(np.int64),
    "sltu": lambda a, b: (a.astype(np.uint64) < b.astype(np.uint64)).astype(np.int64),
    "mul": lambda a, b: a * b,
    "mulhu": _np_mulhu,
    "div": _np_div,
    "divu": _np_divu,
    "rem": _np_rem,
    "remu": _np_remu,
}

INT_IMMOPS = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slli": "sll", "srli": "srl", "srai": "sra",
    "slti": "slt", "sltiu": "sltu",
}

FP_BINOPS = {
    "fadd.s": lambda a, b: a + b, "fadd.d": lambda a, b: a + b,
    "fsub.s": lambda a, b: a - b, "fsub.d": lambda a, b: a - b,
    "fmul.s": lambda a, b: a * b, "fmul.d": lambda a, b: a * b,
    "fdiv.s": lambda a, b: a / b, "fdiv.d": lambda a, b: a / b,
    "fmax.d": np.maximum, "fmin.d": np.minimum,
}

FP_COMPARES = {
    "flt.d": lambda a, b: (a < b).astype(np.int64),
    "fle.d": lambda a, b: (a <= b).astype(np.int64),
    "feq.d": lambda a, b: (a == b).astype(np.int64),
}

BRANCHES = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "bltu": lambda a, b: a.astype(np.uint64) < b.astype(np.uint64),
    "bgeu": lambda a, b: a.astype(np.uint64) >= b.astype(np.uint64),
}

BRANCHES_Z = {
    "beqz": lambda a: a == 0,
    "bnez": lambda a: a != 0,
    "blez": lambda a: a <= 0,
    "bgez": lambda a: a >= 0,
    "bltz": lambda a: a < 0,
    "bgtz": lambda a: a > 0,
}

# ---------------------------------------------------------------------------
# vector ops (uint64 element-pattern matrices)
# ---------------------------------------------------------------------------

V_INT_BINOPS = {
    "vadd.vv": lambda a, b: a + b,
    "vsub.vv": lambda a, b: a - b,
    "vmul.vv": lambda a, b: a * b,
}

V_INT_SCALAR = {
    "vadd.vx": lambda a, s: a + s,
    "vmul.vx": lambda a, s: a * s,
    "vand.vx": lambda a, s: a & s,
}

V_INT_IMM = {
    "vadd.vi": lambda a, s: a + s,
    "vsll.vi": lambda a, s: a << s,
    "vsrl.vi": lambda a, s: a >> s,
}

V_FP_BINOPS = {
    "vfadd.vv": lambda a, b: a + b,
    "vfsub.vv": lambda a, b: a - b,
    "vfmul.vv": lambda a, b: a * b,
}

V_FP_SCALAR = {
    "vfadd.vf": lambda a, s: a + s,
    "vfmul.vf": lambda a, s: a * s,
}

V_INT_COMPARES = {
    "vmseq.vx": lambda a, s: a == s,
    "vmsne.vx": lambda a, s: a != s,
    "vmslt.vx": lambda a, s: a < s,
    "vmsle.vx": lambda a, s: a <= s,
    "vmsgt.vx": lambda a, s: a > s,
    "vmsge.vx": lambda a, s: a >= s,
}

V_FP_COMPARES = {
    "vmflt.vf": lambda a, s: a < s,
    "vmfle.vf": lambda a, s: a <= s,
    "vmfgt.vf": lambda a, s: a > s,
    "vmfge.vf": lambda a, s: a >= s,
}

#: ``.vs`` reductions: mnemonic -> (ordered fold, operands are floats)
V_REDUCTIONS = {
    "vredsum.vs": (np.add, False),
    "vredmax.vs": (np.maximum, False),
    "vredmin.vs": (np.minimum, False),
    "vfredusum.vs": (np.add, True),
    "vfredmax.vs": (np.maximum, True),
}


# ---------------------------------------------------------------------------
# the register-to-register lane ISA, written once for both walks
# ---------------------------------------------------------------------------


class LaneISA:
    """Scalar-ALU, vector-ALU, reduction and load/store semantics over
    lane arrays, behind one op-class dispatch (:meth:`_step`).

    Both vectorized walks inherit these executors; a walk supplies its
    register representation and its memory:

    * ``xr`` / ``fr`` / ``vr`` register files (``vr`` entries are uint64
      element matrices whose last axis is the element index, or None),
    * ``_wx/_wf/_wv(rd, val, m)`` — write a result under the active-lane
      mask ``m`` (None = every lane),
    * ``_cur_sew(m)`` / ``_cur_vl(m)`` — the vector configuration the
      active lanes agree on (``vl < 0`` = never set, i.e. VLMAX),
    * ``_lanes`` — the leading shape of a freshly materialised vector
      register: ``(n,)`` when every value is held per lane, ``()`` when
      launch-uniform values stay 0-d / ``(vl,)``,
    * ``_load(lanes, addrs, size)`` / ``_store(lanes, addrs, rows)`` —
      little-endian byte rows in and out of memory, and ``_exec_vset``,
    * ``_active(mask)`` / ``_spread(vals, lanes)`` — which lanes a memory
      instruction runs for and how their results lie back over all
      lanes.  The defaults select everything (``...``), so the maskless
      walk's addresses and data keep their 0-d / ``(n,)`` forms; the
      masked walk overrides them with ``np.nonzero(mask)`` / a scatter.

    Everything else is shape-generic numpy (``...`` indexing,
    broadcasting), so a launch-uniform operand is never widened to
    ``(n,)`` here.  Unsupported operations raise
    :class:`UnsupportedVectorOp`, which the walks turn into their
    per-launch interpreter fallback.
    """

    _lanes: tuple = ()

    def _active(self, mask):
        """Index selecting the lanes a memory instruction runs for."""
        return ...

    def _spread(self, vals: np.ndarray, lanes) -> np.ndarray:
        """Lay the selected lanes' results back over every lane."""
        return vals

    def _step(self, inst, m, mask) -> None:
        """Execute one non-control-flow instruction for the active lanes
        (``m``: write mask or None; ``mask``: what ``_active`` selects
        from)."""
        op = inst.op_class
        if op is OpClass.ALU:
            self._exec_alu(inst, m)
        elif op is OpClass.VALU_OP:
            self._exec_valu(inst, m)
        elif op is OpClass.LOAD:
            self._exec_load(inst, m, mask)
        elif op is OpClass.STORE:
            self._exec_store(inst, m, mask)
        elif op is OpClass.VLOAD:
            self._exec_vload(inst, m, mask)
        elif op is OpClass.VSTORE:
            self._exec_vstore(inst, m, mask)
        elif op is OpClass.VRED:
            self._exec_vred(inst, m)
        elif op is OpClass.VSET:
            self._exec_vset(inst, m)
        elif op is not OpClass.FENCE:
            raise UnsupportedVectorOp(f"unsupported op class {op.value}")

    def _eff_vl(self, m, sew: int) -> int:
        limit = vlmax(sew)
        vl = self._cur_vl(m)
        return limit if vl < 0 else min(vl, limit)

    def _read_v(self, idx: int, count: int) -> np.ndarray:
        """First ``count`` elements of ``v[idx]``, zero-filled if shorter."""
        arr = self.vr[idx]
        if arr is None or arr.shape[-1] == 0:
            return np.zeros(self._lanes + (count,), dtype=np.uint64)
        k = arr.shape[-1]
        if k < count:
            pad = np.zeros(arr.shape[:-1] + (count - k,), dtype=np.uint64)
            arr = np.concatenate([arr, pad], axis=-1)
        return arr[..., :count]

    @staticmethod
    def _splat(val, vl: int) -> np.ndarray:
        """Repeat a per-lane (or launch-uniform) scalar ``vl`` times."""
        v = np.asarray(val, dtype=np.uint64)
        return np.repeat(v[..., None], vl, axis=-1)

    # -- scalar ------------------------------------------------------------

    def _branch_cond(self, inst) -> np.ndarray:
        """Per-lane (or launch-uniform) outcome of a conditional branch."""
        mn = inst.mnemonic
        if mn in BRANCHES:
            return BRANCHES[mn](self.xr[inst.rs1], self.xr[inst.rs2])
        if mn in BRANCHES_Z:
            return BRANCHES_Z[mn](self.xr[inst.rs1])
        raise UnsupportedVectorOp(f"unsupported branch {mn}")

    def _exec_alu(self, inst, m) -> None:
        mn = inst.mnemonic
        xr, fr = self.xr, self.fr
        if mn in INT_BINOPS:
            self._wx(inst.rd, INT_BINOPS[mn](xr[inst.rs1], xr[inst.rs2]), m)
        elif mn in INT_IMMOPS:
            self._wx(inst.rd, INT_BINOPS[INT_IMMOPS[mn]](
                xr[inst.rs1], np.int64(inst.imm)), m)
        elif mn in ("addw", "mulw"):
            base = INT_BINOPS["add" if mn == "addw" else "mul"]
            self._wx(inst.rd,
                     base(xr[inst.rs1], xr[inst.rs2]).astype(np.int32), m)
        elif mn == "li":
            self._wx(inst.rd, np.int64(to_signed64(inst.imm)), m)
        elif mn == "lui":
            self._wx(inst.rd, np.int64(to_signed64(inst.imm << 12)), m)
        elif mn == "mv":
            self._wx(inst.rd, xr[inst.rs1], m)
        elif mn == "neg":
            self._wx(inst.rd, -xr[inst.rs1], m)
        elif mn == "seqz":
            self._wx(inst.rd, (xr[inst.rs1] == 0).astype(np.int64), m)
        elif mn == "snez":
            self._wx(inst.rd, (xr[inst.rs1] != 0).astype(np.int64), m)
        elif mn in FP_BINOPS:
            self._wf(inst.rd, FP_BINOPS[mn](fr[inst.rs1], fr[inst.rs2]), m)
        elif mn in FP_COMPARES:
            self._wx(inst.rd, FP_COMPARES[mn](fr[inst.rs1], fr[inst.rs2]), m)
        elif mn == "fmadd.d":
            self._wf(inst.rd,
                     fr[inst.rs1] * fr[inst.rs2] + fr[inst.rs3], m)
        elif mn == "fsqrt.d":
            val = fr[inst.rs1]
            if np.any((val if m is None else val[m]) < 0):
                raise UnsupportedVectorOp("fsqrt of negative value")
            # |val|: inactive lanes may be negative, and sqrt(-0.0) must
            # be +0.0 like the scalar executor's ``value ** 0.5``
            self._wf(inst.rd, np.sqrt(np.abs(val)), m)
        elif mn == "fmv.d":
            self._wf(inst.rd, fr[inst.rs1], m)
        elif mn == "fmv.x.d":
            bits = np.ascontiguousarray(fr[inst.rs1], dtype=np.float64)
            self._wx(inst.rd, bits.view(np.int64), m)
        elif mn == "fmv.d.x":
            bits = np.ascontiguousarray(xr[inst.rs1], dtype=np.int64)
            self._wf(inst.rd, bits.view(np.float64), m)
        elif mn in ("fcvt.d.l", "fcvt.s.l"):
            self._wf(inst.rd, xr[inst.rs1].astype(np.float64), m)
        elif mn == "fcvt.l.d":
            self._wx(inst.rd, np.trunc(fr[inst.rs1]).astype(np.int64), m)
        else:
            raise UnsupportedVectorOp(f"unsupported mnemonic {mn}")

    def _exec_load(self, inst, m, mask) -> None:
        lanes = self._active(mask)
        addrs = self.xr[inst.rs1][lanes] + np.int64(inst.imm)
        mn = inst.mnemonic
        if mn in FP_LOADS:
            size = FP_LOADS[mn]
            bits = from_le_bytes(self._load(lanes, addrs, size))
            self._wf(inst.rd,
                     self._spread(bits_to_float(bits, size * 8), lanes), m)
            return
        size = LOAD_SIGNED.get(mn) or LOAD_UNSIGNED[mn]
        value = from_le_bytes(self._load(lanes, addrs, size))
        value = (sign_extend(value, size * 8) if mn in LOAD_SIGNED
                 else value.astype(np.int64))
        self._wx(inst.rd, self._spread(value, lanes), m)

    def _exec_store(self, inst, m, mask) -> None:
        lanes = self._active(mask)
        addrs = self.xr[inst.rs1][lanes] + np.int64(inst.imm)
        mn = inst.mnemonic
        if mn in FP_STORES:
            size = FP_STORES[mn]
            bits = float_to_bits(self.fr[inst.rs2][lanes], size * 8)
        else:
            size = STORES[mn]
            bits = self.xr[inst.rs2][lanes].astype(np.uint64)
        self._store(lanes, addrs, to_le_bytes(bits, size))

    # -- vector ------------------------------------------------------------

    def _exec_vload(self, inst, m, mask) -> None:
        vl = self._eff_vl(m, inst.size * 8)
        if vl == 0:
            self._wv(inst.rd,
                     np.zeros(self._lanes + (0,), dtype=np.uint64), m)
            return
        lanes = self._active(mask)
        addrs = self.xr[inst.rs1][lanes] + np.int64(inst.imm)
        raw = self._load(lanes, addrs, vl * inst.size)
        elems = from_le_bytes(raw.reshape(raw.shape[:-1] + (vl, inst.size)))
        self._wv(inst.rd, self._spread(elems, lanes), m)

    def _exec_vstore(self, inst, m, mask) -> None:
        sew = inst.size * 8
        vl = self._eff_vl(m, sew)
        if vl == 0:
            return
        lanes = self._active(mask)
        addrs = self.xr[inst.rs1][lanes] + np.int64(inst.imm)
        values = to_pattern(
            self._read_v(inst.rd, vl)[lanes].astype(np.int64), sew)
        raw = to_le_bytes(values, inst.size)
        self._store(lanes, addrs,
                    raw.reshape(raw.shape[:-2] + (vl * inst.size,)))

    def _exec_valu(self, inst, m) -> None:
        mn = inst.mnemonic
        sew = self._cur_sew(m)
        vl = self._eff_vl(m, sew)
        xr, fr = self.xr, self.fr
        rv = self._read_v

        if mn in V_INT_BINOPS:
            a = sign_extend(rv(inst.rs1, vl), sew)
            b = sign_extend(rv(inst.rs2, vl), sew)
            self._wv(inst.rd, to_pattern(V_INT_BINOPS[mn](a, b), sew), m)
        elif mn in V_INT_SCALAR:
            a = sign_extend(rv(inst.rs1, vl), sew)
            s = per_thread(xr[inst.rs2])
            self._wv(inst.rd, to_pattern(V_INT_SCALAR[mn](a, s), sew), m)
        elif mn in V_INT_IMM:
            a = sign_extend(rv(inst.rs1, vl), sew)
            self._wv(inst.rd, to_pattern(
                V_INT_IMM[mn](a, np.int64(inst.imm)), sew), m)
        elif mn == "vmacc.vv":
            a = sign_extend(rv(inst.rs1, vl), sew)
            b = sign_extend(rv(inst.rs2, vl), sew)
            d = sign_extend(rv(inst.rd, vl), sew)
            self._wv(inst.rd, to_pattern(d + a * b, sew), m)
        elif mn in V_FP_BINOPS:
            a = bits_to_float(rv(inst.rs1, vl), sew)
            b = bits_to_float(rv(inst.rs2, vl), sew)
            self._wv(inst.rd, float_to_bits(V_FP_BINOPS[mn](a, b), sew), m)
        elif mn in V_FP_SCALAR:
            a = bits_to_float(rv(inst.rs1, vl), sew)
            s = per_thread(fr[inst.rs2])
            self._wv(inst.rd, float_to_bits(V_FP_SCALAR[mn](a, s), sew), m)
        elif mn == "vfmacc.vf":
            a = bits_to_float(rv(inst.rs1, vl), sew)
            s = per_thread(fr[inst.rs2])
            d = bits_to_float(rv(inst.rd, vl), sew)
            self._wv(inst.rd, float_to_bits(d + a * s, sew), m)
        elif mn == "vfmacc.vv":
            a = bits_to_float(rv(inst.rs1, vl), sew)
            b = bits_to_float(rv(inst.rs2, vl), sew)
            d = bits_to_float(rv(inst.rd, vl), sew)
            self._wv(inst.rd, float_to_bits(d + a * b, sew), m)
        elif mn in V_INT_COMPARES:
            a = sign_extend(rv(inst.rs1, vl), sew)
            s = per_thread(xr[inst.rs2])
            self._wv(inst.rd, V_INT_COMPARES[mn](a, s).astype(np.uint64), m)
        elif mn in V_FP_COMPARES:
            a = bits_to_float(rv(inst.rs1, vl), sew)
            s = per_thread(fr[inst.rs2])
            self._wv(inst.rd, V_FP_COMPARES[mn](a, s).astype(np.uint64), m)
        elif mn in ("vmand.mm", "vmor.mm"):
            a = rv(inst.rs1, vl) != 0
            b = rv(inst.rs2, vl) != 0
            out = (a & b) if mn == "vmand.mm" else (a | b)
            self._wv(inst.rd, out.astype(np.uint64), m)
        elif mn == "vmerge.vxm":
            s = to_pattern(per_thread(xr[inst.rs2]), sew)
            self._wv(inst.rd,
                     np.where(rv(0, vl) != 0, s, rv(inst.rs1, vl)), m)
        elif mn == "vmerge.vim":
            s = to_pattern(np.int64(inst.imm), sew)
            self._wv(inst.rd,
                     np.where(rv(0, vl) != 0, s, rv(inst.rs1, vl)), m)
        elif mn == "vmv.v.i":
            self._wv(inst.rd, np.full(
                self._lanes + (vl,), to_pattern(np.int64(inst.imm), sew),
                dtype=np.uint64), m)
        elif mn == "vmv.v.x":
            self._wv(inst.rd,
                     self._splat(to_pattern(xr[inst.rs1], sew), vl), m)
        elif mn == "vfmv.v.f":
            self._wv(inst.rd,
                     self._splat(float_to_bits(fr[inst.rs1], sew), vl), m)
        elif mn == "vmv.v.v":
            self._wv(inst.rd, rv(inst.rs1, vl).copy(), m)
        elif mn == "vid.v":
            self._wv(inst.rd, np.broadcast_to(
                np.arange(vl, dtype=np.uint64), self._lanes + (vl,)), m)
        elif mn == "vmv.x.s":
            values = self.vr[inst.rs1]
            if values is None or values.shape[-1] == 0:
                self._wx(inst.rd, np.int64(0), m)
            else:
                self._wx(inst.rd, sign_extend(values[..., 0], sew), m)
        elif mn == "vfmv.f.s":
            values = self.vr[inst.rs1]
            if values is None or values.shape[-1] == 0:
                self._wf(inst.rd, 0.0, m)
            else:
                self._wf(inst.rd, bits_to_float(values[..., 0], sew), m)
        elif mn == "vmv.s.x":
            cur = self.vr[inst.rd]
            k = cur.shape[-1] if cur is not None and cur.shape[-1] else 1
            s = to_pattern(xr[inst.rs1], sew)
            arr = rv(inst.rd, k)
            # a per-lane scalar widens a launch-uniform register
            arr = np.broadcast_to(arr, np.broadcast_shapes(
                arr.shape[:-1], np.shape(s)) + (k,)).copy()
            arr[..., 0] = s
            self._wv(inst.rd, arr, m)
        else:
            raise UnsupportedVectorOp(f"unsupported vector mnemonic {mn}")

    def _exec_vred(self, inst, m) -> None:
        mn = inst.mnemonic
        if mn not in V_REDUCTIONS:
            raise UnsupportedVectorOp(f"unsupported reduction {mn}")
        fold, is_float = V_REDUCTIONS[mn]
        sew = self._cur_sew(m)
        vl = self._eff_vl(m, sew)
        va = self._read_v(inst.rs1, vl)
        seed = self._read_v(inst.rs2, max(vl, 1))[..., 0]
        if is_float:
            seed, vs = bits_to_float(seed, sew), bits_to_float(va, sew)
        else:
            seed, vs = sign_extend(seed, sew), sign_extend(va, sew)
        # Accumulate exactly like the scalar executor so float rounding
        # matches it bit for bit: an *ordered* loop over the (tiny) vl,
        # and for sums ``seed + sum(elements)`` — the seed joins last.
        acc = np.zeros_like(seed) if fold is np.add else seed
        for j in range(vl):
            acc = fold(acc, vs[..., j])
        if fold is np.add:
            acc = seed + acc
        result = float_to_bits(acc, sew) if is_float else to_pattern(acc, sew)
        self._wv(inst.rd, np.asarray(result, dtype=np.uint64)[..., None], m)
