"""A device's scratchpads cost only the pages a launch writes.

Every launch writes its argument block into the scratchpad of each unit
in its window (§III-G): a few dozen bytes in each row of the device's
``[num_units, scratchpad_bytes]`` array.  Backed by 4 KiB pages, that is
one resident page per row.  Had the array come in 2 MiB huge pages (numpy
advises them for allocations of 4 MiB or more), or out of reused heap
memory that ``calloc`` zeroes by hand, megabytes per device would be
resident.

The count is of the array's own pages, read from ``/proc/self/pagemap``
(bit 63: page present), not the growth of the process's RSS: memory the
allocator hands out again is already resident before the write, so RSS
growth would miss it.
"""

import os
import struct

import numpy as np
import pytest

from repro.mem.scratchpad import SCRATCHPAD_VBASE, write_rows
from repro.workloads import histogram
from repro.workloads.base import make_platform

PAGEMAP = "/proc/self/pagemap"
PAGE = os.sysconf("SC_PAGE_SIZE")

#: 32 rows of one 4 KiB page each is 128 KiB; a single 2 MiB page is not
MAX_RESIDENT_BYTES = 512 * 1024

#: A HISTO launch writes its bins at scratchpad offsets 0x100-0x4100 of
#: each unit (5 pages) besides the argument block (1 page): 768 KiB over
#: 32 rows.  A launch that wrote back whole rows would leave 4 MiB.
MAX_HISTO_RESIDENT_BYTES = 1 << 20


def _resident_bytes(array: np.ndarray) -> int:
    first = array.ctypes.data // PAGE
    last = (array.ctypes.data + array.nbytes - 1) // PAGE
    with open(PAGEMAP, "rb") as f:
        f.seek(first * 8)
        entries = f.read((last - first + 1) * 8)
    present = sum(e >> 63 for (e,) in struct.iter_unpack("<Q", entries))
    return present * PAGE


@pytest.fixture
def device():
    return make_platform().device


def test_scratchpad_array_keeps_its_layout(device):
    spads = device.scratchpads
    ndp = device.config.ndp
    assert spads.shape == (ndp.num_units, ndp.scratchpad_bytes)
    assert spads.dtype == np.uint8
    assert spads.flags.writeable and spads.flags.c_contiguous
    assert not spads.any()
    spads[3, 5] = 7
    assert device.units[3].scratchpad.read(SCRATCHPAD_VBASE + 5, 1) == b"\x07"


@pytest.mark.skipif(not os.access(PAGEMAP, os.R_OK),
                    reason="needs a readable /proc/self/pagemap")
def test_argument_write_makes_only_its_pages_resident(device):
    units = [unit.scratchpad for unit in device.units]
    args = bytes(range(64))
    write_rows(units, device.scratchpads, SCRATCHPAD_VBASE, args)
    resident = _resident_bytes(device.scratchpads)
    assert resident <= MAX_RESIDENT_BYTES, f"{resident // 1024} KiB resident"
    assert all(spad.read(SCRATCHPAD_VBASE, 64) == args for spad in units)


@pytest.mark.skipif(not os.access(PAGEMAP, os.R_OK),
                    reason="needs a readable /proc/self/pagemap")
def test_histo_launch_makes_only_its_bins_resident():
    platform = make_platform()
    result = histogram.run_ndp(platform, histogram.generate(1 << 12, 4096))
    assert result.correct
    assert platform.stats.get("exec.simt_launches") == 1
    resident = _resident_bytes(platform.device.scratchpads)
    assert resident <= MAX_HISTO_RESIDENT_BYTES, (
        f"{resident // 1024} KiB resident")
