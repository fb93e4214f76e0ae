"""Domain-specific NDP baselines (Fig 14a).

The paper compares M2NDP against processing elements from four prior
domain-specific CXL/near-memory designs, assuming enough PEs to saturate
memory bandwidth (§IV-D):

* **CXL-ANNS** [74] — approximate nearest neighbor search,
* **CMS** [122]     — computational CXL-memory (KNN/filter kernels),
* **RecNMP** [77]   — recommendation-model SLS near-DIMM processing,
* **CXL-PNM** [109] — LPDDR-based processing-near-memory for LLMs.

Because these PEs are fixed-function datapaths fed by simple address
generators, they stream with slightly better DRAM row locality than a
general-purpose unit running the same kernel; the paper measures M2NDP
within 6.5 % of them on average.  We model each PE as a bandwidth-saturating
engine with a per-design streaming efficiency (fraction of peak internal
DRAM bandwidth sustained), which is the one microarchitectural quantity
that separated them in the paper's study.  Each design is a
``config.COMPARATORS`` row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import COMPARATORS, default_system
from repro.errors import ConfigError


@dataclass(frozen=True)
class DomainSpecificPE:
    """A fixed-function NDP design; its numbers are read from its
    ``config.COMPARATORS`` row on every call, so a changed row shows."""

    name: str

    @property
    def streaming_efficiency(self) -> float:
        """Fraction of internal DRAM bandwidth the PE sustains."""
        return COMPARATORS[self.name]["streaming_efficiency"]

    @property
    def workloads(self) -> tuple[str, ...]:
        return COMPARATORS[self.name]["workloads"]

    def runtime_ns(self, bytes_touched: int) -> float:
        if bytes_touched <= 0:
            raise ConfigError("bytes_touched must be positive")
        return bytes_touched / (default_system().cxl_dram.total_bw_bytes_per_ns
                                * self.streaming_efficiency)


CXL_ANNS = DomainSpecificPE("CXL-ANNS")
CMS = DomainSpecificPE("CMS")
RECNMP = DomainSpecificPE("RecNMP")
CXL_PNM = DomainSpecificPE("CXL-PNM")

ALL_PES = (CXL_ANNS, CMS, RECNMP, CXL_PNM)
