"""RVV element helpers: bit-pattern <-> value conversions.

Vector registers hold raw element *bit patterns* (unsigned Python ints),
exactly like hardware: integer ops reinterpret them as signed two's
complement, floating-point ops as IEEE-754 of the current SEW.  These
helpers centralize the conversions so the executor stays readable.
"""

from __future__ import annotations

import struct

from repro.errors import ExecutionError

#: VLEN in bits for the NDP unit's 256-bit vector datapath (Table IV).
VLEN_BITS = 256

_FLOAT_PACK = {32: struct.Struct("<f"), 64: struct.Struct("<d")}
_INT_PACK = {8: struct.Struct("<B"), 16: struct.Struct("<H"),
             32: struct.Struct("<I"), 64: struct.Struct("<Q")}


def vlmax(sew: int) -> int:
    """Elements per vector register at the given element width.

    >>> vlmax(64)
    4
    >>> vlmax(32)
    8
    """
    if sew not in (8, 16, 32, 64):
        raise ExecutionError(f"unsupported SEW {sew}")
    return VLEN_BITS // sew


def mask_bits(sew: int) -> int:
    return (1 << sew) - 1


def as_signed(pattern: int, sew: int) -> int:
    """Reinterpret a bit pattern as signed."""
    pattern &= mask_bits(sew)
    half = 1 << (sew - 1)
    return pattern - (1 << sew) if pattern >= half else pattern


def as_unsigned(value: int, sew: int) -> int:
    """Wrap a value into an unsigned bit pattern of the element width."""
    return value & mask_bits(sew)


def bits_to_float(pattern: int, sew: int) -> float:
    """IEEE-754 interpretation of a 32- or 64-bit pattern."""
    packer = _FLOAT_PACK.get(sew)
    if packer is None:
        raise ExecutionError(f"no float interpretation for SEW {sew}")
    return packer.unpack(_INT_PACK[sew].pack(pattern & mask_bits(sew)))[0]


def float_to_bits(value: float, sew: int) -> int:
    packer = _FLOAT_PACK.get(sew)
    if packer is None:
        raise ExecutionError(f"no float representation for SEW {sew}")
    return _INT_PACK[sew].unpack(packer.pack(value))[0]


def unpack_elements(data: bytes, sew: int) -> list[int]:
    """Split raw bytes into element bit patterns (little endian)."""
    step = sew // 8
    packer = _INT_PACK[sew]
    return [packer.unpack_from(data, i)[0] for i in range(0, len(data), step)]


def pack_elements(elements: list[int], sew: int) -> bytes:
    step = sew // 8
    packer = _INT_PACK[sew]
    out = bytearray(len(elements) * step)
    for i, element in enumerate(elements):
        packer.pack_into(out, i * step, element & mask_bits(sew))
    return bytes(out)
