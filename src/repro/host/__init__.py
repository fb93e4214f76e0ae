"""Host-side models: runtime API, offload paths, CPU/GPU/NSU/DSA baselines."""

from repro.host.api import (
    HDMAllocator,
    LaunchHandle,
    M2Call,
    M2NDPRuntime,
    pack_args,
)
from repro.host.cpu import CoreRequestPool, HostCPUModel, MemoryTarget
from repro.host.dsa import ALL_PES, DomainSpecificPE
from repro.host.gpu import (
    GPUDevice,
    GPUKernelResult,
    GPUKernelSpec,
    GPUMemorySystem,
    StreamingMultiprocessor,
    WarpProfile,
    make_gpu_baseline,
    make_gpu_ndp,
)
from repro.host.nsu import NSUModel, NSUWorkload
from repro.host.offload import (
    CXLioDirectOffload,
    CXLioRingBufferOffload,
    M2FuncOffload,
    OffloadPath,
    OffloadTimeline,
    make_offload_path,
    timeline,
)

__all__ = [
    "ALL_PES",
    "CXLioDirectOffload",
    "CXLioRingBufferOffload",
    "CoreRequestPool",
    "DomainSpecificPE",
    "GPUDevice",
    "GPUKernelResult",
    "GPUKernelSpec",
    "GPUMemorySystem",
    "HDMAllocator",
    "HostCPUModel",
    "LaunchHandle",
    "M2Call",
    "M2FuncOffload",
    "M2NDPRuntime",
    "MemoryTarget",
    "NSUModel",
    "NSUWorkload",
    "OffloadPath",
    "OffloadTimeline",
    "StreamingMultiprocessor",
    "WarpProfile",
    "make_gpu_baseline",
    "make_gpu_ndp",
    "make_offload_path",
    "pack_args",
    "timeline",
]
