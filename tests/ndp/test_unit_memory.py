"""The flat scalar memory path against :class:`PhysicalMemory`.

:class:`~repro.ndp.unit.UnitMemory` reads and writes a page directly when
an access stays inside one page wholly below the capacity, and the
compiled point replay inlines the same read with a per-page memo.  Both
must give the bytes, or raise the error, that the plain path gives:
``PageTable.lookup`` and then ``PhysicalMemory.read_bytes`` /
``write_bytes`` (the scratchpad window first).  The addresses drawn hit
every edge: page-crossing, never-written, scratchpad (on a mapped page),
unmapped and the capacity's last partial page and beyond.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryError_
from repro.exec import point
from repro.exec.trace_cache import PointFamily, PointPathEntry
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.mem.scratchpad import SCRATCHPAD_VBASE, Scratchpad
from repro.ndp.tlb import PAGE_SHIFT, TLB, PageTable, Translation
from repro.ndp.unit import UnitMemory
from repro.sim.stats import StatsRegistry
from repro.workloads.base import make_platform

ASID = 3
SPAD_BYTES = 256
#: the last page, ppn 6, lies partly past the capacity
CAPACITY = 6 * PAGE_SIZE + 100
VPN0 = 0x40
#: vpn -> ppn: vpn 1 and 2 are virtually adjacent, not physically; vpn 3
#: is the partial page, vpn 4 past the capacity; VPN0 + 6 and + 7 are
#: unmapped
PAGES = {0: 2, 1: 3, 2: 5, 3: 6, 4: 7, 5: 4}
#: the scratchpad window's page is mapped too: the window still wins
SPAD_PAGE = SCRATCHPAD_VBASE >> PAGE_SHIFT
SIZES = (1, 2, 4, 8, 16, 64)


def _memory():
    physical = PhysicalMemory(CAPACITY)
    gen = np.random.default_rng(5)
    for ppn in (2, 3):               # 4 and 5 are never written
        physical.write_bytes(ppn * PAGE_SIZE,
                             gen.integers(0, 256, PAGE_SIZE, np.uint8))
    physical.write_bytes(6 * PAGE_SIZE, gen.integers(0, 256, 100, np.uint8))
    table = PageTable(ASID)
    for vpn, ppn in PAGES.items():
        table.map_page(VPN0 + vpn, ppn)
    table.map_page(SPAD_PAGE, 3)
    spad = Scratchpad(SPAD_BYTES)
    spad.write(SCRATCHPAD_VBASE, bytes(range(SPAD_BYTES)))
    memory = UnitMemory(physical, table, spad, StatsRegistry(), ASID)
    return memory, physical, table, spad


def _reference(table, physical, spad):
    """The plain path: the scratchpad window, else translate and go
    through :class:`PhysicalMemory`."""
    def paddr(vaddr):
        ppn = table.lookup(vaddr >> PAGE_SHIFT).ppn
        return (ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def window(vaddr):
        return SCRATCHPAD_VBASE <= vaddr < SCRATCHPAD_VBASE + SPAD_BYTES

    def load(vaddr, size):
        if window(vaddr):
            return spad.read(vaddr, size)
        return physical.read_bytes(paddr(vaddr), size)

    def store(vaddr, data):
        if window(vaddr):
            spad.write(vaddr, data)
        else:
            physical.write_bytes(paddr(vaddr), data)
    return load, store


def _outcome(call, *args):
    try:
        return call(*args)
    except MemoryError_ as error:    # TranslationFault is one too
        return type(error), str(error)


addresses = st.one_of(
    st.builds(lambda vpn, offset: ((VPN0 + vpn) << PAGE_SHIFT) + offset,
              st.integers(0, 7),
              st.one_of(st.integers(0, PAGE_SIZE - 1),
                        st.integers(PAGE_SIZE - 70, PAGE_SIZE - 1),
                        st.integers(60, 110))),
    st.integers(SCRATCHPAD_VBASE - 8, SCRATCHPAD_VBASE + SPAD_BYTES + 8),
    st.integers(SCRATCHPAD_VBASE, SCRATCHPAD_VBASE + PAGE_SIZE - 1),
)

#: a load: its size, and None (a store passes its bytes through) or
#: whether its value is signed (a store writes the value, so the replay
#: reads it straight into an int)
loads = st.one_of(st.tuples(st.sampled_from(SIZES), st.none()),
                  st.tuples(st.sampled_from((1, 2, 4, 8)), st.booleans()))

_FAMILIES: dict = {}


def _two_load_replay(two):
    """A compiled family whose one path makes the two loads ``two`` at
    ``x1`` and ``x2`` and stores what each read (:func:`_stored`)."""
    family = _FAMILIES.get(two)
    if family is None:
        steps = [("mem", 0, (("ld", ("lin", 0, ((base, 1),)), size, k,
                              bool(signed)),))
                 for k, (base, (size, signed)) in enumerate(zip(("x1", "x2"),
                                                                two))]
        steps += [("mem", 0, (("st", 8 * k, size, ("pass", k))
                              if signed is None else
                              ("st", 8 * k, 8,
                               ("expr", ("lin", 0, ((("ld", k), 1),)), 8)),))
                  for k, (size, signed) in enumerate(two)]
        family = _FAMILIES[two] = PointFamily(translation_version=0)
        family.insert(steps, PointPathEntry(
            translation_version=0, steps=steps, tail_cycles=0, ops=[],
            exemplar=(0, 0, b"")))
        point.compile_family(family)
    return family.replay


def _stored(raw: bytes, signed) -> bytes:
    """What :func:`_two_load_replay` stores for a load that read ``raw``."""
    if signed is None:
        return raw
    value = int.from_bytes(raw, "little", signed=signed)
    return (value % (1 << 64)).to_bytes(8, "little")


@settings(max_examples=500, deadline=None)
@given(addresses, loads, addresses, loads)
def test_inline_replay_load_and_unit_load_agree_with_physical(
        first, first_load, second, second_load):
    memory, physical, table, spad = _memory()
    load, _ = _reference(table, physical, spad)
    expected = []
    for vaddr, (size, signed) in ((first, first_load),
                                  (second, second_load)):
        want = _outcome(load, vaddr, size)
        assert _outcome(memory.load, vaddr, size) == want
        if not isinstance(want, bytes):
            expected = want              # the replay raises it too
            break
        expected.append(_stored(want, signed))

    def replayed():
        commits = _two_load_replay((first_load, second_load))(
            memory, first, second, 0, False)[2]
        return [data for _, data in commits]
    assert _outcome(replayed) == expected


@settings(max_examples=300, deadline=None)
@given(addresses, st.sampled_from((0,) + SIZES), st.integers(0, 255))
def test_unit_store_writes_what_physical_writes(vaddr, size, fill):
    data = bytes([fill]) * size
    memory, mine, _, my_spad = _memory()
    _, physical, table, spad = _memory()
    _, store = _reference(table, physical, spad)
    assert _outcome(memory.store, vaddr, data) == _outcome(store, vaddr, data)
    # the same pages (an empty write creates none), the same bytes
    assert ({ppn: bytes(page) for ppn, page in mine._pages.items()}
            == {ppn: bytes(page) for ppn, page in physical._pages.items()})
    assert bytes(my_spad._data) == bytes(spad._data)


def test_timed_access_keeps_the_dtlb_as_tlb_lookup_does():
    # timed_access takes a DTLB hit inline: the same hits and misses, and
    # the same LRU order, as TLB.lookup then insert on a miss (300 pages
    # through 256 entries: hits, misses and evictions)
    platform = make_platform(backend="batched")
    runtime = platform.runtime
    unit = platform.device.units[0]
    base = runtime.alloc(300 * PAGE_SIZE)
    reference = TLB(unit.dtlb.capacity)
    t = 0.0
    for page in np.random.default_rng(3).integers(0, 300, 2000).tolist():
        vaddr = base + page * PAGE_SIZE + 8
        vpn = vaddr >> PAGE_SHIFT
        if reference.lookup(runtime.asid, vpn) is None:
            reference.insert(runtime.asid, Translation(vpn, vpn))
        t = unit.timed_access(vaddr, 8, False, False, t, runtime.asid)
    assert reference.hits > 1000 and reference.misses > 300
    assert ((unit.dtlb.hits, unit.dtlb.misses)
            == (reference.hits, reference.misses))
    assert list(unit.dtlb._entries) == list(reference._entries)
