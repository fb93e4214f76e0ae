"""System configuration presets mirroring Table IV of the paper.

Every experiment builds a :class:`SystemConfig` (or one of its named
variants) and hands it to the models.  All sizes are bytes, all times are
nanoseconds, all frequencies GHz, all bandwidths bytes/ns (== GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DRAMTiming:
    """DRAM timing parameters, in device clocks (converted via ``tck_ns``)."""

    tck_ns: float
    t_rc: int
    t_rcd: int
    t_cl: int
    t_rp: int

    def __post_init__(self) -> None:
        if self.tck_ns <= 0:
            raise ConfigError("tCK must be positive")
        if min(self.t_rc, self.t_rcd, self.t_cl, self.t_rp) <= 0:
            raise ConfigError("DRAM timing parameters must be positive")
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
    channels: int
    banks_per_channel: int
    timing: DRAMTiming
    access_granularity: int       # bytes moved by one column access
    channel_bw_bytes_per_ns: float
    capacity_bytes: int
    row_bytes: int = 2 * KIB      # row-buffer coverage per channel

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise ConfigError("channel/bank counts must be positive")
        if self.access_granularity <= 0 or self.row_bytes < self.access_granularity:
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


def ddr5_host_dram() -> DRAMConfig:
    """8-channel DDR5-6400, 409.6 GB/s (host CPU local memory)."""
    return DRAMConfig(
        name="DDR5-host",
        channels=8,
        banks_per_channel=32,
        timing=DRAMTiming(tck_ns=0.3125, t_rc=149, t_rcd=46, t_cl=46, t_rp=46),
        access_granularity=64,
        channel_bw_bytes_per_ns=51.2,
        capacity_bytes=512 * GIB,
    )


def hbm2_gpu_dram() -> DRAMConfig:
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
    size_bytes: int
    ways: int
    line_bytes: int
    sector_bytes: int
    hit_latency_ns: float

    def __post_init__(self) -> None:
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

    bw_per_dir_bytes_per_ns: float = 64.0
    flit_bytes: int = 256
    load_to_use_ns: float = 150.0
    # Fixed component of LtU that is *not* the link round trip: host cache
    # miss path + device-side controller + DRAM access.  Derived so that the
    # default profile decomposes as  LtU = fixed + 2 * one_way.
    port_to_port_round_trip_ns: float = 70.0

    def __post_init__(self) -> None:
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


# Offload mechanism latencies (one-shot overheads, §IV-A).
CXLIO_DIRECT_MMIO_OVERHEAD_NS = 1_500.0
CXLIO_RING_BUFFER_OVERHEAD_NS = 4_000.0


# ---------------------------------------------------------------------------
# NDP (M2NDP device)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NDPConfig:
    """M2NDP configuration (Table IV, bottom block)."""

    num_units: int = 32
    subcores_per_unit: int = 4
    uthread_slots_per_subcore: int = 16
    issue_width: int = 4
    freq_ghz: float = 2.0
    regfile_bytes_per_unit: int = 48 * KIB
    scratchpad_bytes: int = 128 * KIB
    max_concurrent_kernels: int = 48
    vector_bits: int = 256
    scalar_alus_per_subcore: int = 2
    vector_alus_per_subcore: int = 1
    itlb_entries: int = 256
    dtlb_entries: int = 256
    l1d: CacheConfig = field(default_factory=ndp_l1d_config)
    #: µthread execution backend: "interpreter" (bit-exact per-instruction
    #: reference path) or "batched" (trace-once/replay-many fast path with
    #: automatic per-launch fallback; see repro.exec).
    backend: str = "interpreter"

    def __post_init__(self) -> None:
        if self.num_units <= 0 or self.subcores_per_unit <= 0:
            raise ConfigError("NDP unit/sub-core counts must be positive")
        if self.vector_bits % 64 != 0:
            raise ConfigError("vector width must be a multiple of 64 bits")
        from repro.exec.base import backend_names  # lazy: avoids a cycle

        if self.backend not in backend_names():
            raise ConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"choose from {backend_names()}"
            )

    @property
    def vector_bytes(self) -> int:
        return self.vector_bits // 8

    @property
    def regfile_bytes_per_subcore(self) -> int:
        return self.regfile_bytes_per_unit // self.subcores_per_unit

    @property
    def total_uthread_slots(self) -> int:
        return (
            self.num_units
            * self.subcores_per_unit
            * self.uthread_slots_per_subcore
        )

    @property
    def clock(self):
        from repro.sim.clock import Clock

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

    num_devices: int = 2
    placement: str = "interleaved"
    shard_bytes: int = 0
    scheduler: str = "locality"
    #: Hardware partition spec applied to every device ("rt:1,batch:3"),
    #: or None / "" = unset: the one-partition map; see
    #: repro.cluster.partitions.
    partitions: str | None = None
    #: Root seed for every per-stream random generator (traffic arrivals,
    #: tenant data) so cluster traffic and serving runs are reproducible
    #: bit-for-bit across processes; see repro.serve.arrivals.stream_rng.
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        # Lazy imports: placement/scheduler live above config in the
        # package graph only at runtime (they import repro.errors alone).
        from repro.cluster.placement import PLACEMENTS
        from repro.cluster.scheduler import validate_scheduler_name

        if self.num_devices <= 0:
            raise ConfigError("cluster needs at least one device")
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
        if self.shard_bytes < 0:
            raise ConfigError("shard_bytes must be >= 0 (0 = auto)")
        if self.seed < 0:
            raise ConfigError("cluster seed must be >= 0")


# ---------------------------------------------------------------------------
# Host GPU
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GPUConfig:
    """Host GPU (≈ RTX 3090) or GPU-NDP (SMs inside the CXL device)."""

    num_sms: int = 82
    freq_ghz: float = 1.695
    warp_size: int = 32
    max_threads_per_sm: int = 1536
    max_threadblocks_per_sm: int = 32
    regfile_bytes_per_sm: int = 256 * KIB
    shared_mem_bytes_per_sm: int = 128 * KIB
    issue_width: int = 4
    l2_bytes: int = 6 * MIB

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @property
    def clock(self):
        from repro.sim.clock import Clock

        return Clock.from_ghz(self.freq_ghz)


def gpu_ndp_config(num_sms: float, freq_ghz: float = 2.0) -> GPUConfig:
    """GPU-NDP variants (§IV-A): SMs placed inside the CXL device.

    Fractional SM counts (the paper's 16.2-SM Iso-Area point) are realized by
    rounding down and scaling frequency to preserve aggregate throughput.
    """
    whole = int(num_sms)
    if whole <= 0:
        raise ConfigError("need at least one SM")
    eff_freq = freq_ghz * (num_sms / whole)
    return GPUConfig(num_sms=whole, freq_ghz=eff_freq)


# GPU-NDP named variants: SM counts per §IV-A.
GPU_NDP_ISO_FLOPS_SMS = 8
GPU_NDP_4X_FLOPS_SMS = 32
GPU_NDP_16X_FLOPS_SMS = 128
GPU_NDP_ISO_AREA_SMS = 16.2


# ---------------------------------------------------------------------------
# Host CPU
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CPUConfig:
    """Host CPU (64 OoO cores @ 3.2 GHz) or CPU-NDP (32 cores in-device)."""

    num_cores: int = 64
    freq_ghz: float = 3.2
    mlp_per_core: int = 10          # outstanding misses an OoO core sustains
    l1_bytes: int = 64 * KIB
    l2_bytes: int = 1 * MIB
    l3_bytes: int = 96 * MIB
    l1_latency_ns: float = 1.25     # 4 cycles
    l2_latency_ns: float = 3.75     # 12 cycles
    l3_latency_ns: float = 23.1     # 74 cycles
    issue_width: int = 4

    @property
    def clock(self):
        from repro.sim.clock import Clock

        return Clock.from_ghz(self.freq_ghz)


def cpu_ndp_config() -> CPUConfig:
    """CPU-NDP: 32 high-end cores placed inside the CXL memory (§IV-A)."""
    return CPUConfig(num_cores=32, freq_ghz=2.3, mlp_per_core=10)


# ---------------------------------------------------------------------------
# Whole-system bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemConfig:
    """Everything an experiment needs: host, link, device."""

    cxl: CXLConfig = field(default_factory=CXLConfig)
    ndp: NDPConfig = field(default_factory=NDPConfig)
    gpu: GPUConfig = field(default_factory=GPUConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    cxl_dram: DRAMConfig = field(default_factory=lpddr5_cxl_dram)
    host_dram: DRAMConfig = field(default_factory=ddr5_host_dram)
    gpu_dram: DRAMConfig = field(default_factory=hbm2_gpu_dram)
    l2: CacheConfig = field(default_factory=memory_side_l2_config)

    def with_ltu(self, ltu_ns: float) -> "SystemConfig":
        return replace(self, cxl=self.cxl.with_load_to_use(ltu_ns))

    def with_ndp_freq(self, freq_ghz: float) -> "SystemConfig":
        return replace(self, ndp=replace(self.ndp, freq_ghz=freq_ghz))


def default_system() -> SystemConfig:
    """The paper's default configuration (boldface column of Table IV)."""
    return SystemConfig()
