"""NDP-unit scratchpad memory.

Unlike CUDA shared memory (threadblock scope), the M2NDP scratchpad is
shared by *all* µthreads running on one NDP unit (§III-D, advantage A3).
It is mapped into an otherwise-unused virtual region so kernels access it
with ordinary loads/stores, and it supports the atomic operations used for
local reductions (the AMOADD in Fig 8's kernel body).

This model is functional (it stores real bytes) with a fixed access
latency; traffic counters feed the Fig 6b comparison against CUDA shared
memory.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import MemoryError_
from repro.sim.stats import StatsRegistry

#: Virtual base address of the scratchpad window (paper example: kernels
#: address it at 0x10000000).
SCRATCHPAD_VBASE = 0x1000_0000


class Scratchpad:
    """Byte-addressable scratchpad with atomics and a fixed latency."""

    def __init__(
        self,
        size_bytes: int,
        latency_ns: float = 2.0,
        stats: StatsRegistry | None = None,
        stats_prefix: str = "scratchpad",
        base_vaddr: int = SCRATCHPAD_VBASE,
        row: np.ndarray | None = None,
    ) -> None:
        self.size_bytes = size_bytes
        self.latency_ns = latency_ns
        self.base_vaddr = base_vaddr
        self.stats = stats if stats is not None else StatsRegistry()
        self._reads = f"{stats_prefix}.reads"
        self._writes = f"{stats_prefix}.writes"
        self._atomics = f"{stats_prefix}.atomics"
        self._bytes = f"{stats_prefix}.bytes"
        #: the bytes: ``row`` of the device's ``[num_units, size_bytes]``
        #: array (bulk access goes there, see :func:`write_rows`), else a
        #: row of its own.  ``np.zeros`` pages materialize on first write:
        #: 4 KiB ones, but from 4 MiB up numpy asks for transparent huge
        #: pages and one write materializes 2 MiB (the device's array is
        #: an anonymous mapping that refuses them)
        self._data = memoryview(
            row if row is not None else np.zeros(size_bytes, np.uint8))

    # ------------------------------------------------------------------

    def contains(self, vaddr: int) -> bool:
        return self.base_vaddr <= vaddr < self.base_vaddr + self.size_bytes

    def _offset(self, vaddr: int, size: int) -> int:
        offset = vaddr - self.base_vaddr
        if offset < 0 or offset + size > self.size_bytes:
            raise MemoryError_(
                f"scratchpad access {vaddr:#x}+{size} outside window "
                f"[{self.base_vaddr:#x}, {self.base_vaddr + self.size_bytes:#x})"
            )
        return offset

    # ------------------------------------------------------------------

    def read(self, vaddr: int, size: int) -> bytes:
        offset = self._offset(vaddr, size)
        self.stats.add(self._reads)
        self.stats.add(self._bytes, size)
        return bytes(self._data[offset:offset + size])

    def write(self, vaddr: int, data: bytes) -> None:
        offset = self._offset(vaddr, len(data))
        self.stats.add(self._writes)
        self.stats.add(self._bytes, len(data))
        self._data[offset:offset + len(data)] = data

    # ------------------------------------------------------------------

    _FMT = {4: "<i", 8: "<q"}
    _FMT_F = {4: "<f", 8: "<d"}

    def amo(self, op: str, vaddr: int, operand, size: int = 8, is_float: bool = False):
        """Atomic read-modify-write; returns the *old* value (RISC-V AMO)."""
        offset = self._offset(vaddr, size)
        fmt = (self._FMT_F if is_float else self._FMT)[size]
        old = struct.unpack_from(fmt, self._data, offset)[0]
        new = _apply_amo(op, old, operand)
        struct.pack_into(fmt, self._data, offset, new)
        self.stats.add(self._atomics)
        self.stats.add(self._bytes, 2 * size)
        return old


def write_rows(scratchpads: list[Scratchpad], rows: np.ndarray, vaddr: int,
               data: bytes) -> None:
    """:meth:`Scratchpad.write` on every one of ``scratchpads``, whose bytes
    are the rows of ``rows``, as one 2-D assignment (a launch's argument
    block lands in its whole unit window this way)."""
    size = len(data)
    offset = scratchpads[0]._offset(vaddr, size)
    rows[:, offset:offset + size] = np.frombuffer(data, np.uint8)
    for spad in scratchpads:
        spad.stats.add(spad._writes)
        spad.stats.add(spad._bytes, size)


def _apply_amo(op: str, old, operand):
    """Shared AMO arithmetic, also used by the memory-side L2 atomics."""
    if op == "add":
        return old + operand
    if op == "swap":
        return operand
    if op == "and":
        return old & operand
    if op == "or":
        return old | operand
    if op == "xor":
        return old ^ operand
    if op == "min":
        return min(old, operand)
    if op == "max":
        return max(old, operand)
    raise MemoryError_(f"unsupported AMO op {op!r}")
