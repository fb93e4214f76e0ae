"""M2NDP device: NDP units, µthreads, controller, virtual memory."""

from repro.ndp.controller import (
    CONTROLLER_LATENCY_NS,
    ERR_BAD_ARGS,
    ERR_GENERIC,
    ERR_QUEUE_FULL,
    ERR_UNKNOWN_KERNEL,
    NDPController,
)
from repro.ndp.device import M2NDPDevice
from repro.ndp.generator import ARG_SLOT_BYTES, KernelExecution
from repro.ndp.kernel import (
    DEFAULT_UTHREAD_STRIDE,
    KernelDescriptor,
    KernelInstance,
    KernelStatus,
)
from repro.ndp.occupancy import SlotAllocation, SubcoreOccupancy, UnitOccupancy
from repro.ndp.subcore import IssueBank, SubCore
from repro.ndp.tlb import DRAMTLB, PAGE_SIZE, PageTable, TLB, Translation
from repro.ndp.unit import NDPUnit, UnitMemory
from repro.ndp.uthread import Phase, UThread

__all__ = [
    "ARG_SLOT_BYTES",
    "CONTROLLER_LATENCY_NS",
    "DEFAULT_UTHREAD_STRIDE",
    "DRAMTLB",
    "ERR_BAD_ARGS",
    "ERR_GENERIC",
    "ERR_QUEUE_FULL",
    "ERR_UNKNOWN_KERNEL",
    "IssueBank",
    "KernelDescriptor",
    "KernelExecution",
    "KernelInstance",
    "KernelStatus",
    "M2NDPDevice",
    "NDPController",
    "NDPUnit",
    "PAGE_SIZE",
    "PageTable",
    "Phase",
    "SlotAllocation",
    "SubCore",
    "SubcoreOccupancy",
    "TLB",
    "Translation",
    "UThread",
    "UnitMemory",
    "UnitOccupancy",
]
