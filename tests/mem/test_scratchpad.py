"""Tests for the NDP-unit scratchpad."""

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.mem.scratchpad import SCRATCHPAD_VBASE, Scratchpad, write_rows
from repro.sim.stats import StatsRegistry


@pytest.fixture
def spad():
    return Scratchpad(size_bytes=4096)


class TestReadWrite:
    def test_roundtrip(self, spad):
        spad.write(SCRATCHPAD_VBASE + 16, b"abcd")
        assert spad.read(SCRATCHPAD_VBASE + 16, 4) == b"abcd"

    def test_out_of_window_rejected(self, spad):
        with pytest.raises(MemoryError_):
            spad.read(SCRATCHPAD_VBASE + 4090, 8)
        with pytest.raises(MemoryError_):
            spad.write(SCRATCHPAD_VBASE - 4, b"1234")

    def test_writes_and_amos_land_in_the_row_it_was_given(self):
        rows = np.zeros((2, 256), dtype=np.uint8)
        spad = Scratchpad(size_bytes=256, row=rows[1])
        spad.write(SCRATCHPAD_VBASE + 8, b"\xff" * 8)
        assert rows[1, 8:16].tolist() == [0xFF] * 8 and not rows[0].any()
        spad.amo("add", SCRATCHPAD_VBASE, 7, size=8)    # still the same bytes
        assert rows[1, 0] == 7

    def test_write_rows_is_a_write_on_each(self):
        rows = np.zeros((3, 256), dtype=np.uint8)
        stats = StatsRegistry()
        spads = [Scratchpad(256, stats=stats, stats_prefix=f"u{i}", row=rows[i])
                 for i in range(3)]
        write_rows(spads[1:], rows[1:], SCRATCHPAD_VBASE + 192, b"abcdefgh")
        assert not rows[0].any()
        for i in (1, 2):
            assert spads[i].read(SCRATCHPAD_VBASE + 192, 8) == b"abcdefgh"
            assert stats.get(f"u{i}.writes") == 1
            assert stats.get(f"u{i}.bytes") == 16       # the write + the read
        assert stats.get("u0.writes") == 0
        with pytest.raises(MemoryError_):
            write_rows(spads, rows, SCRATCHPAD_VBASE + 250, b"abcdefgh")

    def test_traffic_stats(self, spad):
        spad.write(SCRATCHPAD_VBASE, b"12345678")
        spad.read(SCRATCHPAD_VBASE, 8)
        assert spad.stats.get("scratchpad.bytes") == 16


class TestAtomics:
    def test_amoadd_returns_old(self, spad):
        addr = SCRATCHPAD_VBASE + 64
        assert spad.amo("add", addr, 5, size=8) == 0
        assert spad.amo("add", addr, 3, size=8) == 5
        assert spad.amo("add", addr, 0, size=8) == 8

    def test_amoswap(self, spad):
        addr = SCRATCHPAD_VBASE
        spad.amo("swap", addr, 42, size=8)
        assert spad.amo("swap", addr, 7, size=8) == 42

    @pytest.mark.parametrize("op,start,operand,expected", [
        ("min", 10, 3, 3), ("min", 3, 10, 3),
        ("max", 10, 3, 10), ("max", 3, 10, 10),
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
    ])
    def test_amo_ops(self, spad, op, start, operand, expected):
        addr = SCRATCHPAD_VBASE + 8
        spad.amo("swap", addr, start, size=8)
        spad.amo(op, addr, operand, size=8)
        assert spad.amo("add", addr, 0, size=8) == expected

    def test_float_amoadd(self, spad):
        addr = SCRATCHPAD_VBASE + 32
        spad.amo("add", addr, 1.5, size=8, is_float=True)
        old = spad.amo("add", addr, 2.25, size=8, is_float=True)
        assert old == pytest.approx(1.5)
        assert spad.amo("add", addr, 0.0, size=8, is_float=True) == pytest.approx(3.75)

    def test_32bit_atomics(self, spad):
        addr = SCRATCHPAD_VBASE + 4
        spad.amo("add", addr, 100, size=4)
        assert spad.amo("add", addr, 0, size=4) == 100

    def test_unknown_op_rejected(self, spad):
        with pytest.raises(MemoryError_):
            spad.amo("nand", SCRATCHPAD_VBASE, 1, size=8)
