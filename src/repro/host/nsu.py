"""NSU baseline: GPU-like NDP with host-generated addresses.

Models prior work [81] ("Toward standardized near-data processing with
unrestricted data placement for GPUs") in which the *host* translates and
generates every memory address for the NDP units and streams the resulting
command packets over the interconnect.  Fig 10c shows this performing worse
than the baseline on average (GMEAN 0.97x): the CXL link becomes the
bottleneck because all addresses cross it.

Runtime model::

    t = max(internal work, command traffic over the link, host issue rate)

where command traffic = one descriptor per NDP memory access plus
returned results for loads.  The descriptor (``COMPARATORS["nsu"]``) is a
16 B address/opcode/tag plus its 16 B flit-slot overhead: roughly the data
size of the 32 B access it requests, which is why the link saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import COMPARATORS, default_system


@dataclass
class NSUWorkload:
    """Traffic summary of one kernel from the NSU's perspective."""

    ndp_accesses: int            # memory operations the NDP units perform
    read_bytes: int              # data the kernel loads (results stay local)
    result_bytes: int            # data returned to the host (usually small)


class NSUModel:
    """Analytic runtime for the host-address-generation NDP baseline."""

    def runtime_ns(self, workload: NSUWorkload) -> float:
        row, system = COMPARATORS["nsu"], default_system()
        link_bw = system.cxl.bw_per_dir_bytes_per_ns
        command_ns = workload.ndp_accesses * row["command_bytes"] / link_bw
        result_ns = workload.result_bytes / link_bw
        internal_ns = (workload.read_bytes
                       / system.cxl_dram.total_bw_bytes_per_ns)
        host_ns = workload.ndp_accesses / row["host_issue_per_ns"]
        return max(command_ns + result_ns, internal_ns, host_ns) + (
            system.cxl.load_to_use_ns  # pipeline fill
        )
