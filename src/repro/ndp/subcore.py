"""Sub-core FGMT timing model (Fig 7).

A sub-core dispatches up to 4 instructions per cycle from *different* ready
µthreads (fine-grained multithreading, no forwarding between instructions
of one thread) into its functional units: two scalar ALUs, one scalar
SFU/LSU and one 256-bit vector ALU/SFU/LSU.

Each resource is a running *virtual time* advancing ``period / width`` per
operation (the model of :class:`~repro.sim.engine.IssueServer`); an
instruction's start time is the max of the thread's readiness, a dispatch
slot and its FU's next free slot.  This gives cycle-accurate *throughput*
behaviour (the quantity FGMT cares about) without per-cycle event overhead.

A device keeps all its sub-cores' virtual times in one :class:`IssueBank`
array, so a fast-engine launch occupies its whole unit window with one
array operation; :class:`SubCore` is the scalar view of one row.
"""

from __future__ import annotations

import numpy as np

from repro.config import NDPConfig
from repro.errors import SimulationError
from repro.isa.encoding import FU_COLUMN, FUnit

#: Bank columns: the dispatch stage, then one per functional unit
#: (``FU_COLUMN``).  A row of per-column operation counts is how the engines
#: describe an instruction mix to :meth:`IssueBank.charge` /
#: :meth:`SubCore.service_batch`.
ISSUE_COLUMNS = 1 + len(FU_COLUMN)


class IssueBank:
    """Virtual times of every issue resource on a device:
    ``vt[unit, sub-core, column]``, with ``cost[column]`` ns per operation."""

    def __init__(self, config: NDPConfig) -> None:
        wide = {FUnit.SALU: config.scalar_alus_per_subcore,
                FUnit.VALU: config.vector_alus_per_subcore}
        #: operations each column's resource accepts per clock period
        self.widths = np.array(
            [config.issue_width] + [wide.get(fu, 1) for fu in FUnit])
        self.period_ns = config.clock.period_ns
        if self.widths.min() <= 0 or self.period_ns <= 0:
            raise SimulationError("IssueBank needs positive widths and period")
        self.cost = self.period_ns / self.widths
        self.vt = np.zeros(
            (config.num_units, config.subcores_per_unit, ISSUE_COLUMNS))
        #: ``vt`` flattened, as a float64 memoryview: it reads and writes
        #: the same doubles as Python floats, without numpy's per-scalar
        #: overhead (the interpreter issues through it once an instruction)
        self.flat = memoryview(self.vt.reshape(-1))

    def charge(self, unit_base: int, num_units: int, start_ns: float,
               ops: np.ndarray) -> None:
        """Occupy a unit window's resources with ``ops`` operations each
        (broadcast against ``[num_units, sub-cores, columns]``), all
        arriving at ``start_ns``: back-to-back issues telescope to one
        multiply, and a resource charged zero operations keeps its time.
        """
        vt = self.vt[unit_base:unit_base + num_units]
        np.copyto(vt, np.maximum(vt, start_ns) + ops * self.cost,
                  where=ops > 0)


class SubCore:
    """Issue timing for one NDP sub-core: one row of the device's bank.

    :meth:`issue` is the scalar reference; the interpreter's compiled
    bursts inline its arithmetic over ``_vt``, ``_row`` and ``_cost``.
    """

    def __init__(self, bank: IssueBank, unit: int, index: int) -> None:
        self.period_ns = bank.period_ns
        self._vt = bank.flat
        #: offset of this sub-core's row in ``bank.flat``
        self._row = (unit * bank.vt.shape[1] + index) * ISSUE_COLUMNS
        self._cost = bank.cost.tolist()

    def issue(self, column: int, latency_cycles: int,
              ready_ns: float) -> tuple[float, float]:
        """Issue one instruction on FU ``column`` (``FU_COLUMN``, as
        :func:`repro.isa.executor.decode` gives it) from a thread ready at
        ``ready_ns``.

        Returns ``(start_ns, exec_done_ns)``: the thread's next instruction
        may issue at ``exec_done_ns`` (in-order, no intra-thread overlap);
        for memory ops the caller adds the memory-system latency on top.
        ``bank.flat`` hands out Python floats, so no ``np.float64``
        reaches the event queue.
        """
        vt, cost, row = self._vt, self._cost, self._row
        start = ready_ns
        busy = vt[row]
        if busy > start:
            start = busy
        busy = vt[row + column]
        if busy > start:
            start = busy
        vt[row] = start + cost[0]
        vt[row + column] = start + cost[column]
        return start, start + latency_cycles * self.period_ns

    def service_batch(self, arrival_ns: float, ops) -> None:
        """Scalar form of :meth:`IssueBank.charge` for this sub-core alone:
        ``ops`` is one row of counts (the point engine charges each lane's
        instruction stream here)."""
        vt, cost, row = self._vt, self._cost, self._row
        for column, count in enumerate(ops):
            if count > 0:
                busy = vt[row + column]
                start = arrival_ns if arrival_ns > busy else busy
                vt[row + column] = start + count * cost[column]
