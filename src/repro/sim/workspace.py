"""Working arrays of the vectorized L2/DRAM charge.

One charge (``M2NDPDevice.l2_dram_access_batch`` → ``SectorCache.access_batch``
→ ``DRAMModel.access_batch`` → ``AddressLayout.coordinates_batch`` and the
queue passes of :mod:`repro.sim.engine`) solves a batch with a few dozen
arrays of the batch's length.  Made fresh per batch, each such array is
handed back to the C library when freed and faulted in again, page by
page, by the next batch.  A :class:`Workspace` keeps one array per name
instead: grown geometrically to the longest batch seen, filled with
``out=`` and handed out as a view of its first elements.  A platform's
:class:`~repro.sim.engine.Simulator` owns the one its devices' charges
share (they run one at a time), so a dropped platform takes its arrays
along; a DRAM model or cache built on its own keeps its own.
"""

from __future__ import annotations

import numpy as np

#: The int64 arrays the two halves of one charge share.  The L2 lookup
#: (``SectorCache.access_batch``, its stream's first derivation included)
#: holds none of its temporaries once it returns, and the DRAM half after
#: it (the layout's coordinates, ``DRAMModel.access_batch``, the queue
#: passes) holds none before it starts, so one set serves both.
SHARED_INTS = ("shared.int0", "shared.int1", "shared.int2")


class Workspace:
    """Named working arrays, each as long as the longest batch seen.

    A view from :meth:`take` holds whatever the name's last user wrote, and
    the next :meth:`take` of the same name reuses it: a name belongs to
    call sites that never hold it at the same time, and an array returned
    to a caller is valid until the owner's next batch.  A fresh
    ``Workspace()`` per call allocates exactly what fresh arrays would.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, dtype=np.float64,
             rows: int | None = None) -> np.ndarray:
        """The first ``n`` elements of working array ``name`` (contents
        undefined), or with ``rows`` the first ``rows * n`` as a
        ``[rows, n]`` array, to unpack into ``rows`` arrays of ``n``.  A
        longer request doubles the array, or more; a request in another
        dtype replaces it (two devices of one platform may size their L2
        sector masks differently)."""
        size = n if rows is None else rows * n
        try:
            array = self._arrays[name]
        except KeyError:
            array = None
        if array is None or array.dtype != dtype:
            array = self._arrays[name] = np.empty(size, dtype=dtype)
        elif array.size < size:
            grown = max(size, 2 * array.size)
            array = self._arrays[name] = np.empty(grown, dtype=dtype)
        view = array[:size]
        if rows is not None:
            view.shape = (rows, n)
        return view

    def iota(self, n: int) -> np.ndarray:
        """``np.arange(n)`` as int64, read only."""
        try:
            array = self._arrays["iota"]
        except KeyError:
            array = None
        if array is None or array.size < n:
            grown = n if array is None else max(n, 2 * array.size)
            array = self._arrays["iota"] = np.arange(grown, dtype=np.int64)
        return array[:n]

    def argsort(self, keys: np.ndarray, bound: int,
                out: np.ndarray) -> np.ndarray:
        """``np.argsort(keys, kind="stable")`` of int64 keys in
        ``[0, bound)``, into ``out`` (int64, as long as ``keys``).  Each
        key is packed above its position, so the packed keys are unique
        and one in-place sort of them is the stable order; a mask then
        leaves the positions."""
        n = keys.size
        shift = ((n - 1) | 1).bit_length()
        if bound >> (62 - shift):         # packed, they would overflow
            out[...] = np.argsort(keys, kind="stable")
            return out
        np.left_shift(keys, shift, out=out)
        np.bitwise_or(out, self.iota(n), out=out)
        out.sort()
        return np.bitwise_and(out, (1 << shift) - 1, out=out)

    def compress(self, name: str, mask: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
        """``values[mask]`` of int64 ``values``, into working array
        ``name``.  The positions ``mask.nonzero()`` makes are freed at
        once: they are at most as many as the values kept."""
        kept = mask.nonzero()[0]
        return values.take(kept, out=self.take(name, kept.size, np.int64),
                           mode="clip")
