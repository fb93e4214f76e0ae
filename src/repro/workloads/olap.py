"""In-memory OLAP workload: TPC-H Q6/Q14 and SSB Q1.1-Q1.3 filters.

The paper offloads the memory-intensive *Evaluate* phase of filtering —
sweep columns, produce a boolean mask — to NDP, while the host keeps the
cheap Filter/Etc phases (§IV-B).  Columns use the Arrow-style columnar
layout; the synthetic generators preserve the only distributional property
the timing model sees: predicate selectivity.

Each query is a set of column predicates.  The NDP run launches one
Evaluate kernel per predicate plus mask-AND combine kernels, verifying the
final mask against a numpy reference.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.config import COMPARATORS, default_system
from repro.host.api import pack_args
from repro.host.cpu import HostCPUModel, MemoryTarget
from repro.kernels.olap import EVAL_LT_I32, EVAL_RANGE_F64, EVAL_RANGE_I32, MASK_AND
from repro.workloads.base import NDPRunResult, Platform, ScalePreset, rng


@dataclass(frozen=True)
class Predicate:
    """One column predicate of a query's WHERE clause."""

    column: str
    kind: str                # "range_i32" | "lt_i32" | "range_f64"
    lo: float
    hi: float

    @property
    def bytes_per_row(self) -> int:
        return 8 if self.kind == "range_f64" else 4


@dataclass(frozen=True)
class OLAPQuery:
    """A query with its Evaluate predicates.  The host baseline's cost of
    evaluating it is the ``config.COMPARATORS["cpu"]`` row's, keyed by
    ``name``."""

    name: str
    predicates: tuple[Predicate, ...]

    @property
    def bytes_per_row(self) -> int:
        return sum(p.bytes_per_row for p in self.predicates)


# Date encoding: days since 1992-01-01; discounts in basis points where
# integral, raw f64 where the paper's predicate is fractional.
QUERIES: dict[str, OLAPQuery] = {
    "q6": OLAPQuery(
        name="q6",
        predicates=(
            Predicate("l_shipdate", "range_i32", 730, 1095),      # 1 year
            Predicate("l_discount", "range_f64", 0.05, 0.07),
            Predicate("l_quantity", "lt_i32", 0, 24),
        ),
    ),
    "q14": OLAPQuery(
        name="q14",
        predicates=(
            Predicate("l_shipdate", "range_i32", 850, 880),       # 1 month
        ),
    ),
    "q1_1": OLAPQuery(
        name="q1_1",
        predicates=(
            Predicate("lo_orderdate", "range_i32", 365, 730),
            Predicate("lo_discount", "range_i32", 1, 4),
            Predicate("lo_quantity", "lt_i32", 0, 25),
        ),
    ),
    "q1_2": OLAPQuery(
        name="q1_2",
        predicates=(
            Predicate("lo_orderdate", "range_i32", 396, 427),     # 1 month
            Predicate("lo_discount", "range_i32", 4, 7),
            Predicate("lo_quantity", "range_i32", 26, 36),
        ),
    ),
    "q1_3": OLAPQuery(
        name="q1_3",
        predicates=(
            Predicate("lo_orderdate", "range_i32", 370, 377),     # 1 week
            Predicate("lo_discount", "range_i32", 5, 8),
            Predicate("lo_quantity", "range_i32", 26, 36),
        ),
    ),
}


@dataclass
class OLAPData:
    """Generated columns and their numpy reference mask."""

    query: OLAPQuery
    rows: int
    columns: dict[str, np.ndarray]
    reference_mask: np.ndarray


def generate(query_name: str, rows: int, salt: int = 0) -> OLAPData:
    """Synthesize columns so each predicate sees realistic selectivity."""
    query = QUERIES[query_name]
    gen = rng(salt + zlib.crc32(query_name.encode()))  # hash() is per-process
    columns: dict[str, np.ndarray] = {}
    mask = np.ones(rows, dtype=bool)
    for pred in query.predicates:
        if pred.kind == "range_f64":
            data = gen.uniform(0.0, 0.11, rows).round(2)
            columns[pred.column] = data.astype(np.float64)
            mask &= (data >= pred.lo) & (data <= pred.hi)
        else:
            span = {"l_shipdate": 2557, "lo_orderdate": 2557}.get(
                pred.column, 50
            )
            data = gen.integers(0, span, rows, dtype=np.int32)
            columns[pred.column] = data
            if pred.kind == "lt_i32":
                mask &= data < pred.hi
            else:
                mask &= (data >= pred.lo) & (data < pred.hi)
    return OLAPData(query=query, rows=rows, columns=columns,
                    reference_mask=mask)


_KERNELS = {
    "range_i32": EVAL_RANGE_I32,
    "lt_i32": EVAL_LT_I32,
    "range_f64": EVAL_RANGE_F64,
}


def run_ndp_evaluate(platform: Platform, data: OLAPData) -> NDPRunResult:
    """Offload the Evaluate phase: one kernel per predicate + mask ANDs."""
    runtime = platform.runtime
    query = data.query
    rows = data.rows

    col_addrs = {
        name: runtime.alloc_array(col) for name, col in data.columns.items()
    }
    mask_addrs = [runtime.alloc(rows) for _ in query.predicates]

    total_ns = 0.0
    instances = 0
    start_bytes = platform.stats.get("cxl_dram.bytes")

    for pred, mask_addr in zip(query.predicates, mask_addrs):
        col = data.columns[pred.column]
        addr = col_addrs[pred.column]
        if pred.kind == "range_f64":
            lo_bits = np.float64(pred.lo).view(np.uint64)
            hi_bits = np.float64(pred.hi).view(np.uint64)
            args = pack_args(mask_addr, int(lo_bits), int(hi_bits))
        else:
            args = pack_args(mask_addr, int(pred.lo), int(pred.hi))
        instance = runtime.run_kernel(
            _KERNELS[pred.kind], addr, addr + col.nbytes, args=args,
            name=f"{query.name}.{pred.column}",
        )
        total_ns += instance.runtime_ns
        instances += 1

    # combine masks pairwise into mask_addrs[0]
    final_addr = mask_addrs[0]
    for other in mask_addrs[1:]:
        instance = runtime.run_kernel(
            MASK_AND, final_addr, final_addr + rows,
            args=pack_args(other, final_addr), name=f"{query.name}.and",
        )
        total_ns += instance.runtime_ns
        instances += 1

    produced = runtime.read_array(final_addr, np.uint8, rows).astype(bool)
    correct = bool(np.array_equal(produced, data.reference_mask))

    return NDPRunResult(
        name=f"olap.{query.name}",
        runtime_ns=total_ns,
        correct=correct,
        instance_count=instances,
        dram_bytes=platform.stats.get("cxl_dram.bytes") - start_bytes,
        extras={"selectivity": float(data.reference_mask.mean())},
    )


# ---------------------------------------------------------------------------
# baselines (§IV-A): host CPU with passive CXL memory; CPU-NDP; Ideal NDP.
# Their parameters are the config.COMPARATORS rows "cpu" and "cpu_ndp".
# ---------------------------------------------------------------------------

def baseline_evaluate_ns(data: OLAPData,
                         ltu_ns: float | None = None) -> float:
    """Host-CPU Evaluate over CXL.

    The baseline engine (Polars-style) evaluates each query's filter as a
    latency-bound single-threaded column sweep over the CXL link
    (``ltu_ns`` defaults to the default system's load-to-use); per-row
    branchy predicate evaluation adds CPU time (the ``cpu`` row's
    ``ns_per_row_predicate`` of the query).
    """
    query = data.query
    cxl = default_system().cxl
    ltu = ltu_ns if ltu_ns is not None else cxl.load_to_use_ns
    cpu = HostCPUModel()
    memory = MemoryTarget("cxl", ltu, cxl.bw_per_dir_bytes_per_ns)
    stream_ns = (data.rows * query.bytes_per_row
                 / cpu.scan_bandwidth(memory, threads=1))
    compute_ns = (data.rows * len(query.predicates)
                  * cpu.row["ns_per_row_predicate"][query.name])
    return stream_ns + compute_ns


def cpu_ndp_evaluate_ns(data: OLAPData) -> float:
    """CPU-NDP: high-end cores inside the device (§IV-A)."""
    cpu = HostCPUModel("cpu_ndp")
    query = data.query
    stream_ns = data.rows * query.bytes_per_row / cpu.scan_bandwidth(
        MemoryTarget.device_internal())
    compute_ns = (data.rows * len(query.predicates)
                  * cpu.row["ns_per_row_predicate"] / cpu.row["cores"])
    return max(stream_ns, compute_ns)


def ideal_ndp_evaluate_ns(data: OLAPData) -> float:
    """Ideal NDP: 100 % of internal DRAM bandwidth (§IV-C)."""
    query = data.query
    # reads every predicate column + writes/reads masks for combining
    mask_traffic = (2 * len(query.predicates)) * data.rows
    return ((data.rows * query.bytes_per_row + mask_traffic)
            / default_system().cxl_dram.total_bw_bytes_per_ns)


def full_query_phases_ns(data: OLAPData, evaluate_ns: float,
                         baseline_eval_ns: float) -> dict[str, float]:
    """Split a full query into its Evaluate phase and the host's rest
    (Fig 10a's normalized runtime).

    The Filter and Etc phases stay on the host, so their time, ``host``,
    is inherited from the baseline via the ``cpu`` row's
    ``evaluate_fraction`` of the query.
    """
    fraction = COMPARATORS["cpu"]["evaluate_fraction"][data.query.name]
    baseline_total = baseline_eval_ns / fraction
    host_ns = baseline_total - baseline_eval_ns
    return {
        "evaluate": evaluate_ns,
        "host": host_ns,
        "total": evaluate_ns + host_ns,
        "baseline_total": baseline_total,
    }
