"""Sparse byte-addressable physical memory.

This is the *functional* backing store for everything the simulator touches:
host-managed device memory (HDM) contents, kernel code, workload arrays and
the M2func region all live here.  Timing is modeled elsewhere (``dram.py``,
``cache.py``); this module only stores bytes.

Storage is paged so a 256 GB address space costs memory only for pages
actually written.  Typed accessors cover the widths the RISC-V executor
needs, and numpy helpers bulk-load workload arrays.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import MemoryError_

PAGE_SIZE = 4096

_STRUCT = {
    ("u", 1): struct.Struct("<B"),
    ("u", 2): struct.Struct("<H"),
    ("u", 4): struct.Struct("<I"),
    ("u", 8): struct.Struct("<Q"),
    ("i", 1): struct.Struct("<b"),
    ("i", 2): struct.Struct("<h"),
    ("i", 4): struct.Struct("<i"),
    ("i", 8): struct.Struct("<q"),
    ("f", 4): struct.Struct("<f"),
    ("f", 8): struct.Struct("<d"),
}


class PhysicalMemory:
    """Sparse little-endian byte store with typed and bulk accessors."""

    def __init__(self, capacity_bytes: int | None = None) -> None:
        self.capacity_bytes = capacity_bytes
        self._pages: dict[int, bytearray] = {}

    # -- raw byte access ----------------------------------------------------

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0:
            raise MemoryError_(f"negative address/size: {addr:#x}/{size}")
        if self.capacity_bytes is not None and addr + size > self.capacity_bytes:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) beyond capacity "
                f"{self.capacity_bytes:#x}"
            )

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = bytearray(PAGE_SIZE)
        return page

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check_range(addr, size)
        # fast path: access within one page (the overwhelmingly common case)
        offset = addr % PAGE_SIZE
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(addr // PAGE_SIZE)
            if page is None:
                return bytes(size)
            return bytes(page[offset:offset + size])
        out = bytearray(size)
        pos = 0
        while pos < size:
            page_idx, offset = divmod(addr + pos, PAGE_SIZE)
            chunk = min(size - pos, PAGE_SIZE - offset)
            page = self._pages.get(page_idx)
            if page is not None:
                out[pos:pos + chunk] = page[offset:offset + chunk]
            pos += chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes | bytearray) -> None:
        size = len(data)
        self._check_range(addr, size)
        offset = addr % PAGE_SIZE
        if offset + size <= PAGE_SIZE:
            self._page(addr // PAGE_SIZE)[offset:offset + size] = data
            return
        pos = 0
        while pos < size:
            page_idx, offset = divmod(addr + pos, PAGE_SIZE)
            chunk = min(size - pos, PAGE_SIZE - offset)
            self._page(page_idx)[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk

    # -- typed scalar access --------------------------------------------------

    def _read_typed(self, kind: str, size: int, addr: int):
        return _STRUCT[(kind, size)].unpack(self.read_bytes(addr, size))[0]

    def _write_typed(self, kind: str, size: int, addr: int, value) -> None:
        self.write_bytes(addr, _STRUCT[(kind, size)].pack(value))

    def read_u8(self, addr: int) -> int:
        return self._read_typed("u", 1, addr)

    def read_u16(self, addr: int) -> int:
        return self._read_typed("u", 2, addr)

    def read_u32(self, addr: int) -> int:
        return self._read_typed("u", 4, addr)

    def read_u64(self, addr: int) -> int:
        return self._read_typed("u", 8, addr)

    def read_i8(self, addr: int) -> int:
        return self._read_typed("i", 1, addr)

    def read_i16(self, addr: int) -> int:
        return self._read_typed("i", 2, addr)

    def read_i32(self, addr: int) -> int:
        return self._read_typed("i", 4, addr)

    def read_i64(self, addr: int) -> int:
        return self._read_typed("i", 8, addr)

    def read_f32(self, addr: int) -> float:
        return self._read_typed("f", 4, addr)

    def read_f64(self, addr: int) -> float:
        return self._read_typed("f", 8, addr)

    def write_u8(self, addr: int, value: int) -> None:
        self._write_typed("u", 1, addr, value & 0xFF)

    def write_u16(self, addr: int, value: int) -> None:
        self._write_typed("u", 2, addr, value & 0xFFFF)

    def write_u32(self, addr: int, value: int) -> None:
        self._write_typed("u", 4, addr, value & 0xFFFFFFFF)

    def write_u64(self, addr: int, value: int) -> None:
        self._write_typed("u", 8, addr, value & 0xFFFFFFFFFFFFFFFF)

    def write_i32(self, addr: int, value: int) -> None:
        self._write_typed("i", 4, addr, value)

    def write_i64(self, addr: int, value: int) -> None:
        self._write_typed("i", 8, addr, value)

    def write_f32(self, addr: int, value: float) -> None:
        self._write_typed("f", 4, addr, value)

    def write_f64(self, addr: int, value: float) -> None:
        self._write_typed("f", 8, addr, value)

    # -- numpy bulk access ----------------------------------------------------

    def store_array(self, addr: int, array: np.ndarray) -> int:
        """Copy ``array`` into memory at ``addr``; returns bytes written."""
        data = np.ascontiguousarray(array).tobytes()
        self.write_bytes(addr, data)
        return len(data)

    def load_array(self, addr: int, dtype, count: int) -> np.ndarray:
        """Read ``count`` items of ``dtype`` starting at ``addr``."""
        dt = np.dtype(dtype)
        raw = self.read_bytes(addr, dt.itemsize * count)
        return np.frombuffer(raw, dtype=dt).copy()

    def page_array(self, index: int, create: bool = False) -> np.ndarray | None:
        """Writable uint8 view of one backing page, for vectorized access.

        Returns ``None`` for a page that was never written (reads as zeros)
        unless ``create`` is set.  Views alias the page storage: writes are
        immediately visible to the byte accessors.
        """
        self._check_range(index * PAGE_SIZE, PAGE_SIZE)
        page = self._pages.get(index)
        if page is None:
            if not create:
                return None
            page = self._page(index)
        return np.frombuffer(page, dtype=np.uint8)

    # -- vectorized row access (batched execution backend) --------------------

    @staticmethod
    def _is_run(paddrs: np.ndarray, size: int) -> bool:
        """True when the rows are one ascending run of adjacent bytes
        (``paddrs[i + 1] == paddrs[i] + size``) — what a streaming kernel
        produces; indexed gathers (SPMV, DLRM) are the other case."""
        return paddrs.shape[0] > 0 and bool(
            (paddrs[1:] - paddrs[:-1] == size).all())

    def gather_rows(self, paddrs: np.ndarray, size: int) -> np.ndarray:
        """Read ``size`` bytes at each physical address; (n, size) uint8.

        A contiguous run (:meth:`_is_run`) is one :meth:`read_bytes` —
        O(pages) slice copies and no index array.  Otherwise rows are
        grouped by backing page so one numpy fancy-index serves every
        same-page row; page-crossing rows fall back to :meth:`read_bytes`.
        Unwritten pages read as zeros.
        """
        if paddrs.ndim == 0:
            return np.frombuffer(
                self.read_bytes(int(paddrs), size), dtype=np.uint8
            ).copy()
        n = paddrs.shape[0]
        if self._is_run(paddrs, size):
            return np.frombuffer(
                self.read_bytes(int(paddrs[0]), n * size), dtype=np.uint8
            ).reshape(n, size).copy()
        out = np.zeros((n, size), dtype=np.uint8)
        offsets = paddrs % PAGE_SIZE
        crossing = offsets + size > PAGE_SIZE
        if crossing.any():
            for row in np.nonzero(crossing)[0]:
                out[row] = np.frombuffer(
                    self.read_bytes(int(paddrs[row]), size), dtype=np.uint8
                )
        rows = np.nonzero(~crossing)[0]
        if not rows.size:
            return out
        pages = paddrs[rows] // PAGE_SIZE
        if pages.size > 1 and not (pages[1:] >= pages[:-1]).all():
            order = np.argsort(pages, kind="stable")
            rows, pages = rows[order], pages[order]
        uniq, starts = np.unique(pages, return_index=True)
        bounds = list(starts[1:]) + [rows.size]
        col = np.arange(size)
        lo = 0
        for page, hi in zip(uniq, bounds):
            sel = rows[lo:hi]
            lo = hi
            buf = self.page_array(int(page))
            if buf is None:
                continue  # unwritten pages read as zeros
            offs = (paddrs[sel] % PAGE_SIZE)[:, None] + col
            out[sel] = buf[offs]
        return out

    def scatter_rows(self, paddrs: np.ndarray, data: np.ndarray) -> None:
        """Write each (paddr, row-of-bytes) pair; later rows win on overlap.

        A contiguous run (:meth:`_is_run`, which cannot overlap) is one
        :meth:`write_bytes`; anything else takes the page-grouped path.
        """
        size = data.shape[-1]
        if self._is_run(paddrs, size):
            self.write_bytes(int(paddrs[0]), data.tobytes())
            return
        offsets = paddrs % PAGE_SIZE
        crossing = offsets + size > PAGE_SIZE
        rows = np.nonzero(~crossing)[0]
        if rows.size:
            pages = paddrs[rows] // PAGE_SIZE
            if pages.size > 1 and not (pages[1:] >= pages[:-1]).all():
                order = np.argsort(pages, kind="stable")
                rows, pages = rows[order], pages[order]
            uniq, starts = np.unique(pages, return_index=True)
            bounds = list(starts[1:]) + [rows.size]
            col = np.arange(size)
            lo = 0
            for page, hi in zip(uniq, bounds):
                sel = rows[lo:hi]
                lo = hi
                buf = self.page_array(int(page), create=True)
                offs = (paddrs[sel] % PAGE_SIZE)[:, None] + col
                buf[offs] = data[sel]
        if crossing.any():
            for row in np.nonzero(crossing)[0]:
                self.write_bytes(int(paddrs[row]), data[row].tobytes())

    # -- bookkeeping ------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes of page storage actually allocated."""
        return len(self._pages) * PAGE_SIZE
