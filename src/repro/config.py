"""System configuration presets mirroring Table IV of the paper.

Every experiment builds a :class:`SystemConfig` (or one of its named
variants) and hands it to the models.  All sizes are bytes, all times are
nanoseconds, all frequencies GHz, all bandwidths bytes/ns (== GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.errors import (AT_LEAST_ONE, COUNT, NONNEGATIVE, POSITIVE,
                          ConfigError, Domain, check, check_fields, setting)
from repro.isa.vector import VLEN_BITS
from repro.sim.clock import Clock

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
#: bytes per channel-interleave step: fine-grained hashed interleaving
#: (§IV-A); every DRAM burst lies inside one granule
INTERLEAVE_GRANULE = 256


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DRAMTiming:
    """DRAM timing parameters, in device clocks (converted via ``tck_ns``)."""

    tck_ns: float = setting(POSITIVE)
    t_rc: int = setting(AT_LEAST_ONE)
    t_rcd: int = setting(AT_LEAST_ONE)
    t_cl: int = setting(AT_LEAST_ONE)
    t_rp: int = setting(AT_LEAST_ONE)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.t_rc < self.t_rcd + self.t_rp:
            raise ConfigError("tRC must cover tRCD + tRP")

    @property
    def row_hit_ns(self) -> float:
        """CAS-to-data latency for an open-row access."""
        return self.t_cl * self.tck_ns

    @property
    def row_miss_ns(self) -> float:
        """Activate + CAS latency for a closed bank."""
        return (self.t_rcd + self.t_cl) * self.tck_ns

    @property
    def row_conflict_extra_ns(self) -> float:
        """Additional precharge latency when the wrong row is open."""
        return self.t_rp * self.tck_ns

    @property
    def t_rc_ns(self) -> float:
        return self.t_rc * self.tck_ns


@dataclass(frozen=True)
class DRAMConfig:
    """One DRAM subsystem (a set of channels behind memory controllers)."""

    name: str
    channels: int = setting(AT_LEAST_ONE)
    banks_per_channel: int = setting(AT_LEAST_ONE)
    timing: DRAMTiming
    access_granularity: int = setting(AT_LEAST_ONE)  # bytes per column access
    channel_bw_bytes_per_ns: float = setting(POSITIVE)
    capacity_bytes: int = setting(AT_LEAST_ONE)
    #: row-buffer coverage per channel
    row_bytes: int = setting(AT_LEAST_ONE, 2 * KIB)

    def __post_init__(self) -> None:
        check_fields(self)
        if INTERLEAVE_GRANULE % self.access_granularity:
            raise ConfigError(
                "access_granularity argument of DRAMConfig must divide the "
                f"{INTERLEAVE_GRANULE} B interleave granule, got "
                f"{self.access_granularity!r}")
        if self.row_bytes < self.access_granularity:
            raise ConfigError("bad access granularity / row size")

    @property
    def total_bw_bytes_per_ns(self) -> float:
        return self.channels * self.channel_bw_bytes_per_ns


def lpddr5_cxl_dram() -> DRAMConfig:
    """32-channel LPDDR5, 409.6 GB/s, 256 GB (CXL expander internals)."""
    return DRAMConfig(
        name="LPDDR5-CXL",
        channels=32,
        banks_per_channel=16,
        timing=DRAMTiming(tck_ns=0.625, t_rc=48, t_rcd=15, t_cl=20, t_rp=15),
        access_granularity=32,
        channel_bw_bytes_per_ns=12.8,
        capacity_bytes=256 * GIB,
    )


def hbm2_gpu_memory() -> DRAMConfig:
    """32-channel HBM2, ~1 TB/s (host GPU local memory)."""
    return DRAMConfig(
        name="HBM2-GPU",
        channels=32,
        banks_per_channel=16,
        timing=DRAMTiming(tck_ns=1.0, t_rc=48, t_rcd=14, t_cl=14, t_rp=15),
        access_granularity=32,
        channel_bw_bytes_per_ns=32.0,
        capacity_bytes=24 * GIB,
    )


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheConfig:
    name: str
    size_bytes: int = setting(AT_LEAST_ONE)
    ways: int = setting(AT_LEAST_ONE)
    line_bytes: int = setting(AT_LEAST_ONE)
    sector_bytes: int = setting(AT_LEAST_ONE)
    hit_latency_ns: float = setting(NONNEGATIVE)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(f"{self.name}: size not divisible by ways*line")
        if self.line_bytes % self.sector_bytes != 0:
            raise ConfigError(f"{self.name}: line must be a multiple of sector")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


def memory_side_l2_config() -> CacheConfig:
    """4 MB memory-side L2 (128 KB per LPDDR5 channel), Table IV."""
    return CacheConfig(
        name="cxl-l2",
        size_bytes=4 * MIB,
        ways=16,
        line_bytes=128,
        sector_bytes=32,
        hit_latency_ns=3.5,       # 7 cycles @ 2 GHz
    )


def ndp_l1d_config() -> CacheConfig:
    """128 KB configurable scratchpad / L1D per NDP unit."""
    return CacheConfig(
        name="ndp-l1d",
        size_bytes=128 * KIB,
        ways=16,
        line_bytes=128,
        sector_bytes=32,
        hit_latency_ns=2.0,       # 4 cycles @ 2 GHz
    )


# ---------------------------------------------------------------------------
# CXL link
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CXLConfig:
    """CXL 3.0 x8 link with configurable load-to-use latency profile."""

    bw_per_dir_bytes_per_ns: float = setting(POSITIVE, 64.0)
    load_to_use_ns: float = setting(POSITIVE, 150.0)
    # Fixed component of LtU that is *not* the link round trip: host cache
    # miss path + device-side controller + DRAM access.  Derived so that the
    # default profile decomposes as  LtU = fixed + 2 * one_way.
    port_to_port_round_trip_ns: float = setting(POSITIVE, 70.0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.load_to_use_ns <= self.port_to_port_round_trip_ns:
            raise ConfigError("LtU must exceed the port-to-port round trip")

    @property
    def one_way_ns(self) -> float:
        """One direction through TL/LL/PHY and wires (≈35 ns, Fig 2)."""
        return self.port_to_port_round_trip_ns / 2.0

    @property
    def fixed_overhead_ns(self) -> float:
        """Host + device processing outside the link itself."""
        return self.load_to_use_ns - self.port_to_port_round_trip_ns

    def with_load_to_use(self, ltu_ns: float) -> "CXLConfig":
        """Scale the link portion so total LtU becomes ``ltu_ns`` (Fig 13a).

        The paper's 2xLtU/4xLtU points stretch the interconnect path; the
        fixed DRAM/host portion stays constant, the round trip absorbs the
        difference.
        """
        round_trip = ltu_ns - self.fixed_overhead_ns
        if round_trip <= 0:
            raise ConfigError(f"LtU {ltu_ns} below fixed overhead")
        return replace(
            self, load_to_use_ns=ltu_ns, port_to_port_round_trip_ns=round_trip
        )


# ---------------------------------------------------------------------------
# NDP (M2NDP device)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NDPConfig:
    """M2NDP configuration (Table IV, bottom block)."""

    num_units: int = setting(AT_LEAST_ONE, 32)
    subcores_per_unit: int = setting(AT_LEAST_ONE, 4)
    uthread_slots_per_subcore: int = setting(AT_LEAST_ONE, 16)
    issue_width: int = setting(AT_LEAST_ONE, 4)
    freq_ghz: float = setting(POSITIVE, 2.0)
    regfile_bytes_per_unit: int = setting(AT_LEAST_ONE, 48 * KIB)
    scratchpad_bytes: int = setting(AT_LEAST_ONE, 128 * KIB)
    max_concurrent_kernels: int = setting(AT_LEAST_ONE, 48)
    scalar_alus_per_subcore: int = setting(AT_LEAST_ONE, 2)
    vector_alus_per_subcore: int = setting(AT_LEAST_ONE, 1)
    itlb_entries: int = setting(AT_LEAST_ONE, 256)
    dtlb_entries: int = setting(AT_LEAST_ONE, 256)
    l1d: CacheConfig = field(default_factory=ndp_l1d_config)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def vector_bytes(self) -> int:
        """One vector register: ``isa.vector.VLEN_BITS`` (Table IV)."""
        return VLEN_BITS // 8

    @property
    def regfile_bytes_per_subcore(self) -> int:
        return self.regfile_bytes_per_unit // self.subcores_per_unit

    @cached_property
    def clock(self) -> Clock:
        return Clock.from_ghz(self.freq_ghz)


# ---------------------------------------------------------------------------
# Multi-expander cluster (§III-I / Fig 12b, see repro.cluster)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterConfig:
    """N CXL-M2NDP expanders behind one switch, software-partitioned.

    ``placement`` is the default data placement for cluster allocations
    (per-allocation overrides allowed); ``shard_bytes`` the interleave /
    block granularity (0 = auto-sized per allocation); ``scheduler`` the
    fan-out policy splitting logical launches into per-device sub-launches.
    """

    num_devices: int = setting(AT_LEAST_ONE, 2)
    placement: str = "interleaved"
    shard_bytes: int = setting(COUNT, 0)
    scheduler: str = "locality"
    #: Hardware partition spec applied to every device ("rt:1,batch:3"),
    #: or None / "" = unset: the one-partition map; see
    #: repro.cluster.partitions.
    partitions: str | None = None
    #: Root seed for every per-stream random generator (traffic arrivals,
    #: tenant data) so cluster traffic and serving runs are reproducible
    #: bit-for-bit across processes; see repro.serve.arrivals.stream_rng.
    seed: int = setting(COUNT, 0xC0FFEE)

    def __post_init__(self) -> None:
        # Lazy imports: placement/scheduler live above config in the
        # package graph only at runtime (they import repro.errors alone).
        from repro.cluster.placement import PLACEMENTS
        from repro.cluster.scheduler import validate_scheduler_name

        check_fields(self)
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; "
                f"choose from {list(PLACEMENTS)}"
            )
        validate_scheduler_name(self.scheduler,
                                source="ClusterConfig.scheduler")
        if self.partitions:
            from repro.cluster.partitions import parse_partition_spec
            parse_partition_spec(self.partitions,
                                 source="ClusterConfig.partitions")


# ---------------------------------------------------------------------------
# Comparators (§IV-A): the configurations every speedup and energy ratio is
# taken against, one row each.  Every value names its source: the paper
# (Table IV, a section, a reference number, a figure) or ``calibration:``
# and what it stands for.  What a SystemConfig field already holds (link
# and DRAM bandwidths, load-to-use latency) is read from there instead.
# Every value moves some result over its plausible range; one that moves
# none is deleted (``tools/perturb.py`` re-runs drivers with one value
# changed and prints the headline keys that moved).
# ---------------------------------------------------------------------------

COMPARATORS: dict[str, dict] = {
    # Host CPU streaming from passive CXL memory; also the KVS baseline's
    # cores, both KVS paths' key hashing, and the OLAP baseline's per-query
    # Evaluate cost and phase split (§IV-B).
    "cpu": {
        "cores": 64,                    # Table IV: host CPU cores
        "mlp": 10,                      # calibration: OoO misses in flight
        "instr_per_row_predicate": 4,   # calibration: Fig 15 host instrs
        "static_w": 120.0,              # calibration: host CPU power, §IV-A
        "pj_per_instr": 150.0,          # calibration: 7 nm OoO core average
        "kvs_hash_ns": 150.0,           # calibration: hash a 24 B key + dispatch
        # Branchy evaluation of one predicate on one row, one core.
        "ns_per_row_predicate": {       # calibration: Fig 10a Evaluate speedups
            "q6": 0.9,                  # calibration: 3 predicates, one f64
            "q14": 2.2,                 # calibration: 1 predicate, 1-month range
            "q1_1": 0.7,                # calibration: 3 i32 predicates, 1 year
            "q1_2": 0.6,                # calibration: 3 i32 predicates, 1 month
            "q1_3": 0.65,               # calibration: 3 i32 predicates, 1 week
        },
        # The Evaluate phase's share of the whole query; Filter and Etc,
        # the rest, stay on the host.
        "evaluate_fraction": {          # calibration: Fig 10a stacked bars
            "q6": 0.48,                 # calibration: Fig 10a, Q6's bar
            "q14": 0.52,                # calibration: Fig 10a, Q14's bar
            "q1_1": 0.45,               # calibration: Fig 10a, Q1.1's bar
            "q1_2": 0.42,               # calibration: Fig 10a, Q1.2's bar
            "q1_3": 0.43,               # calibration: Fig 10a, Q1.3's bar
        },
    },
    # CPU-NDP: high-end cores inside the expander on its internal DRAM.
    "cpu_ndp": {
        "cores": 32,                    # §IV-A: cores inside the expander
        "mlp": 10,                      # calibration: the host core's MLP
        "load_to_use_ns": 75.0,         # calibration: internal DRAM, no link
        # Hidden under the scan at 0.25: the predicates bind from 0.47 ns
        # (1.88x) on q14 and q1_x, and from 0.625 ns (2.5x) on q6.
        "ns_per_row_predicate": 0.25,   # calibration: predicate cost, 1 core
    },
    # Host GPU streaming from passive CXL memory.
    "gpu": {
        "launch_ns": 300.0,             # calibration: host-local kernel launch
        "static_w": 100.0,              # calibration: host GPU power (§IV-A)
        "pj_per_instr": 25.0,           # calibration: SM datapath + collectors
    },
    # GPU-NDP: the host GPU's SMs inside the expander; the host GPU idles.
    "gpu_ndp": {
        "launch": "cxl_io_dr",          # Fig 5c: CXL.io direct MMIO registers
        "freq_ghz": 2.0,                # §IV-A: SM clock inside the device
        "static_w_per_sm": 2.5,         # calibration: one SM inside the device
        "host": "gpu",                  # §IV-A: instruction energy, idle host
    },
    # M2NDP itself: its energy.
    "m2ndp": {
        "static_w": 8.0,                # calibration: 32 units at ~0.25 W each
        "pj_per_instr": 8.0,            # calibration: in-order lane + RF
        "pj_per_spad_byte": 0.4,        # calibration: scratchpad SRAM access
    },
    # The expander: static power and access energies of every configuration,
    # and one CXL.mem trip of an M2func offload (Fig 5a).
    "cxl_mem": {
        "static_w": 12.0,               # calibration: controller + LPDDR5 idle
        "pj_per_dram_bit": 4.0,         # calibration: LPDDR5 access energy
        "pj_per_cxl_bit": 8.0,          # [38]: CXL link energy per bit
        "idle_host_fraction": 0.3,      # calibration: idle host's static share
        "one_way_ns": 75.0,             # Fig 5: x, one-way CXL.mem latency
    },
    # CXL.io, the path of the ring-buffer and direct-MMIO offloads (Fig 5b,
    # 5c; ``host.offload.HOPS`` counts each mechanism's one-way trips).
    "cxl_io": {
        "one_way_ns": 500.0,            # Fig 5: y, one-way CXL.io (~1 µs DMA)
    },
    # NSU [81]: the host generates every address the NDP units access.
    "nsu": {
        "command_bytes": 32,            # [81]: 16 B command + 16 B flit slot
    },
    # Domain-specific PEs (Fig 14a, §IV-D): the fraction of internal DRAM
    # bandwidth each sustains.  The paper finds them "sometimes" above
    # M2NDP's measured 81.6-90 %.
    "CXL-ANNS": {
        "streaming_efficiency": 0.92,   # calibration: §IV-D, above M2NDP
        "workloads": ("ann", "knn"),    # [74]: nearest-neighbour search
    },
    "CMS": {
        "streaming_efficiency": 0.90,   # calibration: §IV-D, above M2NDP
        "workloads": ("knn", "filter", "olap"),  # [122]: KNN / filter kernels
    },
    "RecNMP": {
        "streaming_efficiency": 0.93,   # calibration: §IV-D, above M2NDP
        "workloads": ("dlrm", "sls"),   # [77]: recommendation SLS
    },
    "CXL-PNM": {
        "streaming_efficiency": 0.91,   # calibration: §IV-D, above M2NDP
        "workloads": ("opt", "llm", "gemv"),  # [109]: LLM inference
    },
}


# ---------------------------------------------------------------------------
# Host GPU
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GPUConfig:
    """Host GPU (≈ RTX 3090) or GPU-NDP (SMs inside the CXL device)."""

    num_sms: int = setting(AT_LEAST_ONE, 82)
    freq_ghz: float = setting(POSITIVE, 1.695)
    warp_size: int = setting(AT_LEAST_ONE, 32)
    max_threads_per_sm: int = setting(AT_LEAST_ONE, 1536)
    max_threadblocks_per_sm: int = setting(AT_LEAST_ONE, 32)
    regfile_bytes_per_sm: int = setting(AT_LEAST_ONE, 256 * KIB)
    shared_mem_bytes_per_sm: int = setting(AT_LEAST_ONE, 128 * KIB)
    issue_width: int = setting(AT_LEAST_ONE, 4)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @cached_property
    def clock(self) -> Clock:
        return Clock.from_ghz(self.freq_ghz)


def gpu_ndp_config(num_sms: float) -> GPUConfig:
    """GPU-NDP variants (§IV-A): SMs placed inside the CXL device.

    A fractional SM count (the Iso-Area point the area model derives) is
    rounded down, and the frequency scaled to keep aggregate throughput.
    The frequency is the ``COMPARATORS`` row's as it is at the call.
    """
    check("gpu_ndp_config", "num_sms", num_sms,
          Domain("a finite number >= 1", float, lambda x: x >= 1))
    whole = int(num_sms)
    eff_freq = COMPARATORS["gpu_ndp"]["freq_ghz"] * (num_sms / whole)
    return GPUConfig(num_sms=whole, freq_ghz=eff_freq)


# GPU-NDP named variants: SM counts per §IV-A.
GPU_NDP_ISO_FLOPS_SMS = 8
GPU_NDP_4X_FLOPS_SMS = 32
GPU_NDP_16X_FLOPS_SMS = 128


# ---------------------------------------------------------------------------
# Whole-system bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemConfig:
    """Everything an experiment needs: host, link, device."""

    cxl: CXLConfig = field(default_factory=CXLConfig)
    ndp: NDPConfig = field(default_factory=NDPConfig)
    gpu: GPUConfig = field(default_factory=GPUConfig)
    cxl_dram: DRAMConfig = field(default_factory=lpddr5_cxl_dram)
    l2: CacheConfig = field(default_factory=memory_side_l2_config)

    def with_ltu(self, ltu_ns: float) -> "SystemConfig":
        return replace(self, cxl=self.cxl.with_load_to_use(ltu_ns))

    def with_ndp_freq(self, freq_ghz: float) -> "SystemConfig":
        return replace(self, ndp=replace(self.ndp, freq_ghz=freq_ghz))


def default_system() -> SystemConfig:
    """The paper's default configuration (boldface column of Table IV)."""
    return SystemConfig()
