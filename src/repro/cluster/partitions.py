"""Hardware partitioning: blast-radius isolation inside one expander.

OS-level isolation (processes, cgroups) is exactly the overhead M2NDP
exists to avoid, so multi-tenant serving on a CXL expander needs the
*hardware* to carve itself up: MI300-style compute/memory partitioning
where each logical partition owns a disjoint slice of the device's NDP
units, memory-side L2 sets and DRAM channels.  A partitioned device
behaves like several smaller independent devices sharing one physical
byte store — no launch, cache line or DRAM access of one partition can
perturb another partition's timing, and a fault scoped to one partition
(kill / stall / poison) has a blast radius of exactly that partition.

A partition *spec* is a comma-separated list of ``name[:weight]``
entries, e.g. ``"rt:1,batch:3"`` or ``"rt,batch,spare"`` (weights
default to 1).  The same spec applies uniformly to every device in a
cluster: resources are apportioned by largest remainder so per-partition
unit / channel / L2-set shares always sum *exactly* to the device totals
(every resource belongs to exactly one partition — nothing shared,
nothing lost), with every partition guaranteed at least one of each.

The map is resolved once at platform construction (the ``partitions=``
argument of ``ClusterRuntime`` / ``make_cluster_platform``, else
``ClusterConfig.partitions``) and threaded everywhere a resource decision
happens: device timing models, launch queues, shard placement, fan-out
scheduling, fault scoping and the serving tier's admission caps.  Every device is partitioned: an unset spec resolves to
the one-partition map (``SPX_SPEC`` — MI300's default SPX mode *is* a
partition, the single one), whose partition owns every unit, channel
and L2 set and whose timing models are the device's own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Shown by validation errors.
PARTITION_SPEC_EXAMPLES = ('"rt:1,batch:3"', '"rt,batch"',
                           '"rt:2,batch:5,spare:1"')

#: What an unset spec resolves to: one partition owning the whole device.
SPX_SPEC = "spx"

#: Conventional name of a hot-spare partition: partition-scoped failure
#: recovery prefers it as the fail-over target when present.
SPARE_PARTITION = "spare"


def _apportion(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` integral resources proportionally to ``weights``.

    Largest-remainder (Hamilton) apportionment with a floor of 1: shares
    sum to exactly ``total`` and every entry gets at least one resource,
    so a partition can never be compute- or channel-less.
    """
    n = len(weights)
    if total < n:
        raise ConfigError(
            f"cannot apportion {total} resources across {n} partitions "
            f"(each needs at least 1)"
        )
    weight_sum = sum(weights)
    spare = total - n                      # after the 1-per-partition floor
    quotas = [spare * w / weight_sum for w in weights]
    shares = [1 + int(q) for q in quotas]
    remainders = sorted(
        range(n), key=lambda i: (-(quotas[i] - int(quotas[i])), i)
    )
    for i in remainders[: total - sum(shares)]:
        shares[i] += 1
    return shares


def parse_partition_spec(spec: str,
                         source: str = "partitions"
                         ) -> tuple[tuple[str, int], ...]:
    """Parse ``"name[:weight],..."`` into ``((name, weight), ...)``."""

    def bad(why: str) -> ConfigError:
        return ConfigError(
            f"invalid partition spec {spec!r} from {source}: {why}; "
            f"expected comma-separated name[:weight] entries like "
            f"{', '.join(PARTITION_SPEC_EXAMPLES)}"
        )

    entries: list[tuple[str, int]] = []
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            raise bad("empty entry")
        name, sep, weight_str = part.partition(":")
        name = name.strip()
        if not name.replace("_", "").replace("-", "").isalnum():
            raise bad(f"bad partition name {name!r}")
        if sep and not weight_str.strip():
            raise bad(f"missing weight after ':' for {name!r}")
        if weight_str:
            try:
                weight = int(weight_str)
            except ValueError:
                raise bad(f"non-integer weight {weight_str.strip()!r} "
                          f"for {name!r}") from None
            if weight <= 0:
                raise bad(f"weight for {name!r} must be positive")
        else:
            weight = 1
        entries.append((name, weight))
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        raise bad("duplicate partition names")
    return tuple(entries)


@dataclass(frozen=True)
class PartitionShare:
    """One partition's slice of a device's hardware resources."""

    name: str
    index: int
    weight: int
    unit_base: int           # first NDP unit (contiguous range)
    num_units: int
    channels: int            # DRAM channels owned
    l2_sets: int             # memory-side L2 sets owned
    channel_bw_bytes_per_ns: float
    l2_set_bytes: int        # ways * line_bytes (for size reporting)

    @property
    def bandwidth_bytes_per_ns(self) -> float:
        """The partition's private DRAM bandwidth share."""
        return self.channels * self.channel_bw_bytes_per_ns

    @property
    def l2_bytes(self) -> int:
        return self.l2_sets * self.l2_set_bytes

    @property
    def units(self) -> range:
        return range(self.unit_base, self.unit_base + self.num_units)


@dataclass(frozen=True)
class PartitionMap:
    """Resolved per-device partitioning: the spec applied to one config."""

    spec: str
    shares: tuple[PartitionShare, ...]
    total_units: int

    def __post_init__(self) -> None:
        # The apportionment invariant the property tests pin down for
        # units, channels and L2 sets: shares partition each exactly.
        if sum(s.num_units for s in self.shares) != self.total_units:
            raise ConfigError("partition unit shares do not sum to device")

    def __len__(self) -> int:
        return len(self.shares)

    def __iter__(self):
        return iter(self.shares)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.shares)

    def share(self, name: str) -> PartitionShare:
        for s in self.shares:
            if s.name == name:
                return s
        raise ConfigError(
            f"unknown partition {name!r}; this device has {list(self.names)}"
        )

    def index_of(self, name: str) -> int:
        return self.share(name).index

    @property
    def default(self) -> PartitionShare:
        """Where untagged launches land."""
        return self.shares[0]

    def spare_for(self, victim: str) -> PartitionShare | None:
        """Fail-over target for a failed partition.

        Prefers the conventional ``spare`` partition; otherwise the
        lowest-index survivor.  ``None`` when nothing else exists.
        """
        self.share(victim)          # validates the name
        if victim != SPARE_PARTITION:
            for s in self.shares:
                if s.name == SPARE_PARTITION:
                    return s
        for s in self.shares:
            if s.name != victim:
                return s
        return None

    def describe(self) -> dict:
        """JSON-ready summary for the run manifest sidecar."""
        return {
            "spec": self.spec,
            "partitions": [
                {
                    "name": s.name,
                    "weight": s.weight,
                    "units": [s.unit_base, s.unit_base + s.num_units],
                    "channels": s.channels,
                    "l2_bytes": s.l2_bytes,
                    "bandwidth_bytes_per_ns": round(
                        s.bandwidth_bytes_per_ns, 3),
                }
                for s in self.shares
            ],
        }


def resolve_partitions(spec: str | None, config) -> PartitionMap:
    """Resolve a partition spec against a :class:`SystemConfig`.

    An unset (``None`` / empty) spec resolves to the one-partition map.
    Raises :class:`ConfigError` when the spec is malformed or asks for
    more partitions than the device has units / channels to give.
    """
    spec = spec or SPX_SPEC
    entries = parse_partition_spec(spec)
    ndp, dram, l2 = config.ndp, config.cxl_dram, config.l2
    n = len(entries)
    limit = min(ndp.num_units, dram.channels, l2.num_sets)
    if n > limit:
        raise ConfigError(
            f"partition spec {spec!r} from partitions names {n} partitions "
            f"but the device can host at most {limit} "
            f"({ndp.num_units} units, {dram.channels} channels, "
            f"{l2.num_sets} L2 sets); examples: "
            f"{', '.join(PARTITION_SPEC_EXAMPLES)}"
        )
    weights = [w for _, w in entries]
    unit_shares = _apportion(ndp.num_units, weights)
    channel_shares = _apportion(dram.channels, weights)
    set_shares = _apportion(l2.num_sets, weights)
    shares = []
    unit_base = 0
    for i, (name, weight) in enumerate(entries):
        shares.append(PartitionShare(
            name=name,
            index=i,
            weight=weight,
            unit_base=unit_base,
            num_units=unit_shares[i],
            channels=channel_shares[i],
            l2_sets=set_shares[i],
            channel_bw_bytes_per_ns=dram.channel_bw_bytes_per_ns,
            l2_set_bytes=l2.ways * l2.line_bytes,
        ))
        unit_base += unit_shares[i]
    return PartitionMap(
        spec=spec,
        shares=tuple(shares),
        total_units=ndp.num_units,
    )
