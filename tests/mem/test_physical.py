"""Tests for the sparse physical memory backing store."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryError_
from repro.mem.physical import PAGE_SIZE, PhysicalMemory


class TestRawBytes:
    def test_roundtrip(self):
        mem = PhysicalMemory()
        mem.write_bytes(0x1000, b"hello")
        assert mem.read_bytes(0x1000, 5) == b"hello"

    def test_unwritten_reads_zero(self):
        assert PhysicalMemory().read_bytes(0x5000, 8) == b"\0" * 8

    def test_page_crossing_write_read(self):
        mem = PhysicalMemory()
        addr = PAGE_SIZE - 3
        mem.write_bytes(addr, b"abcdef")
        assert mem.read_bytes(addr, 6) == b"abcdef"

    def test_empty_write_creates_no_page(self):
        mem = PhysicalMemory()
        mem.write_bytes(5000, b"")
        mem.store_array(2 * PAGE_SIZE, np.empty(0))
        assert mem._pages == {}

    def test_empty_write_still_checks_its_address(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory(capacity_bytes=PAGE_SIZE).write_bytes(
                PAGE_SIZE + 1, b"")

    def test_clear_drops_whole_pages_and_zeroes_shared_bytes(self):
        mem = PhysicalMemory()
        mem.write_bytes(PAGE_SIZE - 8, b"\xff" * (2 * PAGE_SIZE + 16))
        mem.clear(PAGE_SIZE - 4, 2 * PAGE_SIZE + 8)   # pages 0-3, 1-2 whole
        assert sorted(mem._pages) == [0, 3]
        assert mem.read_bytes(PAGE_SIZE - 8, 2 * PAGE_SIZE + 16) == (
            b"\xff" * 4 + bytes(2 * PAGE_SIZE + 8) + b"\xff" * 4)
        mem.clear(9 * PAGE_SIZE, 16)                  # never written
        assert sorted(mem._pages) == [0, 3]

    def test_capacity_enforced(self):
        mem = PhysicalMemory(capacity_bytes=0x100)
        with pytest.raises(MemoryError_):
            mem.write_bytes(0xF8, b"123456789")
        with pytest.raises(MemoryError_):
            mem.read_bytes(0x100, 1)

    def test_negative_address_rejected(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory().read_bytes(-1, 4)

    @given(st.integers(min_value=0, max_value=1 << 20),
           st.binary(min_size=1, max_size=256))
    def test_roundtrip_property(self, addr, data):
        mem = PhysicalMemory()
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data

    @given(st.integers(min_value=0, max_value=PAGE_SIZE * 3),
           st.binary(min_size=1, max_size=64),
           st.binary(min_size=1, max_size=64))
    def test_adjacent_writes_do_not_clobber(self, addr, left, right):
        mem = PhysicalMemory()
        mem.write_bytes(addr, left)
        mem.write_bytes(addr + len(left), right)
        assert mem.read_bytes(addr, len(left)) == left
        assert mem.read_bytes(addr + len(left), len(right)) == right


class TestTypedAccess:
    @pytest.mark.parametrize("dtype,value", [
        (np.uint8, 0xAB),
        (np.uint16, 0xBEEF),
        (np.uint32, 0xDEADBEEF),
        (np.uint64, 0x0123456789ABCDEF),
        (np.int32, -123456),
        (np.int64, -(1 << 40)),
    ])
    def test_integer_roundtrip(self, dtype, value):
        mem = PhysicalMemory()
        mem.store_array(0x100, np.array([value], dtype=dtype))
        assert mem.load_array(0x100, dtype, 1)[0] == value

    def test_float_roundtrip(self):
        mem = PhysicalMemory()
        mem.store_array(0x10, np.array([1.5], dtype=np.float32))
        mem.store_array(0x20, np.array([-2.25], dtype=np.float64))
        assert mem.load_array(0x10, np.float32, 1)[0] == 1.5
        assert mem.load_array(0x20, np.float64, 1)[0] == -2.25

    def test_unsigned_wrap(self):
        mem = PhysicalMemory()
        mem.write_u64(0x0, (1 << 64) + 0xFF)
        assert mem.read_u64(0x0) == 0xFF

    def test_signed_reads(self):
        mem = PhysicalMemory()
        mem.write_bytes(0x0, b"\xff")
        assert mem.load_array(0x0, np.int8, 1)[0] == -1
        mem.write_bytes(0x2, b"\x00\x80")
        assert mem.load_array(0x2, np.int16, 1)[0] == -(1 << 15)

    def test_little_endian_layout(self):
        mem = PhysicalMemory()
        mem.write_u64(0x0, 0x0807060504030201)
        assert mem.read_bytes(0x0, 8) == bytes(range(1, 9))


class TestNumpyAccess:
    def test_array_roundtrip(self):
        mem = PhysicalMemory()
        array = np.arange(100, dtype=np.int64)
        written = mem.store_array(0x2000, array)
        assert written == 800
        out = mem.load_array(0x2000, np.int64, 100)
        assert np.array_equal(out, array)

    def test_float32_array(self):
        mem = PhysicalMemory()
        array = np.linspace(0, 1, 33, dtype=np.float32)
        mem.store_array(0x40, array)
        assert np.allclose(mem.load_array(0x40, np.float32, 33), array)

    def test_resident_bytes_sparse(self):
        mem = PhysicalMemory()
        mem.write_bytes(0, b"\x01")
        mem.write_bytes(100 * PAGE_SIZE, b"\x01")
        assert sorted(mem._pages) == [0, 100]


class TestCopiesOnce:
    """A contiguous read copies each byte once, straight into the array
    it returns: its traced peak stays within 1.25x of the result's bytes
    (a ``bytearray`` copied into ``bytes`` copied into an array made it
    2x)."""

    MIB = 1 << 20

    @pytest.mark.parametrize("read", ["gather_run", "load_array"])
    def test_peak_of_a_one_mib_read(self, read):
        mem = PhysicalMemory()
        base = PAGE_SIZE // 2                   # the run starts mid-page
        image = np.random.default_rng(0).integers(
            0, 256, self.MIB, dtype=np.uint8)
        mem.store_array(base, image)
        paddrs = base + 64 * np.arange(self.MIB // 64, dtype=np.int64)
        tracemalloc.start()
        try:
            if read == "gather_run":
                out = mem.gather_rows(paddrs, 64)
            else:
                out = mem.load_array(base, np.uint8, self.MIB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == image.tobytes()
        assert peak <= 1.25 * out.nbytes
