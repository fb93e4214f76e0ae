"""Sparse byte-addressable physical memory.

This is the *functional* backing store for everything the simulator touches:
host-managed device memory (HDM) contents, kernel code, workload arrays and
the M2func region all live here.  Timing is modeled elsewhere (``dram.py``,
``cache.py``); this module only stores bytes.

Storage is paged so a 256 GB address space costs memory only for pages
actually written, and :meth:`PhysicalMemory.clear` drops them again when
the allocator takes a range back.  Each page is a memoryview of its own
4096-byte uint8 array (``page.obj``): the byte accessors slice the
memoryview, the row accessors index the array.  Every access that spans
pages walks them in :meth:`PhysicalMemory._chunks` and copies each byte
once: a run of rows or an array is read straight into the array returned
and written from a view of its bytes.  Scattered rows are grouped by page
in :meth:`PhysicalMemory._by_page`, so one fancy index serves a page's
rows.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import MemoryError_

PAGE_SIZE = 4096

_U64 = struct.Struct("<Q")

#: What a page that was never written reads as.
_ZERO = memoryview(bytes(PAGE_SIZE))


class PhysicalMemory:
    """Sparse little-endian byte store with word and bulk accessors."""

    def __init__(self, capacity_bytes: int | None = None) -> None:
        self.capacity_bytes = capacity_bytes
        self._pages: dict[int, memoryview] = {}

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0:
            raise MemoryError_(f"negative address/size: {addr:#x}/{size}")
        if self.capacity_bytes is not None and addr + size > self.capacity_bytes:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) beyond capacity "
                f"{self.capacity_bytes:#x}"
            )

    def _page(self, index: int) -> memoryview:
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = memoryview(
                np.zeros(PAGE_SIZE, dtype=np.uint8))
        return page

    def _chunks(self, addr: int, size: int, create: bool = False):
        """Walk the pages ``[addr, addr + size)`` covers, in order: yields
        ``(pos, chunk)``, ``chunk`` a memoryview of the page bytes that
        hold range bytes ``[pos, pos + len(chunk))``.  A never-written
        page yields read-only zeros, unless ``create`` makes it."""
        self._check_range(addr, size)
        pos = 0
        while pos < size:
            index, offset = divmod(addr + pos, PAGE_SIZE)
            n = min(size - pos, PAGE_SIZE - offset)
            page = self._page(index) if create else self._pages.get(index, _ZERO)
            yield pos, page[offset:offset + n]
            pos += n

    def _read_into(self, addr: int, dst: memoryview) -> None:
        """Fill ``dst``, a writable byte memoryview, from ``addr``."""
        for pos, chunk in self._chunks(addr, len(dst)):
            dst[pos:pos + len(chunk)] = chunk

    # -- raw byte access ----------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        offset = addr % PAGE_SIZE
        if offset + size <= PAGE_SIZE:    # within one page: the common case
            self._check_range(addr, size)
            page = self._pages.get(addr // PAGE_SIZE, _ZERO)
            return page[offset:offset + size].tobytes()
        return b"".join(chunk for _, chunk in self._chunks(addr, size))

    def write_bytes(self, addr: int, data) -> None:
        """Write ``data``: bytes, a bytearray or a 1-d uint8 array."""
        size = len(data)
        offset = addr % PAGE_SIZE
        if offset + size <= PAGE_SIZE:
            self._check_range(addr, size)
            if size:            # an empty write creates no page
                self._page(addr // PAGE_SIZE)[offset:offset + size] = data
            return
        src = memoryview(data)
        for pos, chunk in self._chunks(addr, size, create=True):
            chunk[:] = src[pos:pos + len(chunk)]

    def clear(self, addr: int, size: int) -> None:
        """Make ``[addr, addr + size)`` read zero again: drop each page the
        range covers whole and zero its bytes in a page it shares."""
        for pos, chunk in self._chunks(addr, size):
            if len(chunk) == PAGE_SIZE:
                self._pages.pop((addr + pos) // PAGE_SIZE, None)
            elif not chunk.readonly:      # a never-written page reads zero
                chunk[:] = _ZERO[:len(chunk)]

    # -- 64-bit words ---------------------------------------------------------

    def read_u64(self, addr: int) -> int:
        return _U64.unpack(self.read_bytes(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write_bytes(addr, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))

    # -- numpy bulk access ----------------------------------------------------

    def store_array(self, addr: int, array: np.ndarray) -> int:
        """Copy ``array`` into memory at ``addr``; returns bytes written."""
        raw = memoryview(np.ascontiguousarray(array)).cast("B")
        self.write_bytes(addr, raw)
        return raw.nbytes

    def load_array(self, addr: int, dtype, count: int) -> np.ndarray:
        """Read ``count`` items of ``dtype`` starting at ``addr``."""
        out = np.empty(count, dtype=dtype)
        self._read_into(addr, memoryview(out).cast("B"))
        return out

    # -- vectorized row access (batched execution backend) --------------------

    @staticmethod
    def _is_run(paddrs: np.ndarray, size: int) -> bool:
        """True when the rows are one ascending run of adjacent bytes
        (``paddrs[i + 1] == paddrs[i] + size``) — what a streaming kernel
        produces; indexed gathers (SPMV, DLRM) are the other case."""
        return paddrs.shape[0] > 0 and bool(
            (paddrs[1:] - paddrs[:-1] == size).all())

    @staticmethod
    def _by_page(paddrs: np.ndarray, size: int):
        """Group rows, none of which crosses a page, by page: yields
        ``(page index, rows, offsets)`` per page in ascending order — the
        page's row positions in ``paddrs``, in order (a later row stays
        later), and their ``(k, size)`` byte offsets into the page."""
        pages = paddrs // PAGE_SIZE
        rows = np.argsort(pages, kind="stable")
        pages = pages[rows]
        starts = np.flatnonzero(np.diff(pages, prepend=-1)).tolist()
        col = np.arange(size)
        for lo, hi in zip(starts, starts[1:] + [rows.size]):
            sel = rows[lo:hi]
            yield int(pages[lo]), sel, (paddrs[sel] % PAGE_SIZE)[:, None] + col

    def gather_rows(self, paddrs: np.ndarray, size: int) -> np.ndarray:
        """Read ``size`` bytes at each physical address; (n, size) uint8
        (``(size,)`` for a 0-d address).

        A contiguous run (:meth:`_is_run`) is read like one array.
        Otherwise rows are grouped by page (:meth:`_by_page`), or read one
        by one when a row crosses a page.  Unwritten pages read as zeros.
        """
        if paddrs.ndim == 0:
            return self.load_array(int(paddrs), np.uint8, size)
        n = paddrs.shape[0]
        if self._is_run(paddrs, size):
            return self.load_array(
                int(paddrs[0]), np.uint8, n * size).reshape(n, size)
        out = np.zeros((n, size), dtype=np.uint8)
        if (paddrs % PAGE_SIZE + size > PAGE_SIZE).any():
            for row, addr in zip(out, paddrs.tolist()):
                self._read_into(addr, memoryview(row))
            return out
        for index, rows, offsets in self._by_page(paddrs, size):
            page = self._pages.get(index)
            if page is not None:
                out[rows] = page.obj[offsets]
        return out

    def scatter_rows(self, paddrs: np.ndarray, data: np.ndarray) -> None:
        """Write each (paddr, row-of-bytes) pair; later rows win on overlap.

        A contiguous run (:meth:`_is_run`, which cannot overlap) is written
        like one array; other rows are grouped by page (:meth:`_by_page`),
        or written one by one, in order, when a row crosses a page.
        """
        size = data.shape[-1]
        if self._is_run(paddrs, size):
            self.write_bytes(int(paddrs[0]), data.reshape(-1))
        elif (paddrs % PAGE_SIZE + size > PAGE_SIZE).any():
            for row, addr in zip(data, paddrs.tolist()):
                self.write_bytes(addr, row)
        else:
            for index, rows, offsets in self._by_page(paddrs, size):
                self._page(index).obj[offsets] = data[rows]
