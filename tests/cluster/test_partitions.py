"""Hardware partitioning: spec parsing, apportionment and placement.

The partition map's contract is conservation: however a device is split,
the per-partition sub-core / DRAM-channel / L2-set / bandwidth shares
must sum *exactly* to the device totals (property-tested over random
specs), and a tenant pinned to a partition must never produce a launch
or shard outside it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import make_cluster_platform
from repro.cluster.partitions import (
    PARTITION_SPEC_EXAMPLES,
    PartitionMap,
    parse_partition_spec,
    resolve_partitions,
)
from repro.config import ClusterConfig, SystemConfig
from repro.errors import ConfigError
from repro.host.api import pack_args
from repro.kernels.vecadd import VECADD
from repro.ndp.controller import ERR_BAD_ARGS
from repro.serve import ArrivalSpec, ServingEngine, TenantSpec
from tests.obs.test_serving_trace import recorded_launches

import numpy as np


def _pmap(spec: str, num_devices: int = 1) -> PartitionMap:
    return resolve_partitions(spec, SystemConfig(), source="test")


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

class TestSpecParsing:
    def test_examples_all_parse(self):
        for spec in PARTITION_SPEC_EXAMPLES:
            parsed = parse_partition_spec(spec.strip('"'), source="test")
            assert parsed

    @pytest.mark.parametrize("bad", [
        "", ",", "a:", ":2", "a:0", "a:-1", "a:x", "a,a", "a:1,,b:1",
    ])
    def test_malformed_specs_raise_listing_examples(self, bad):
        with pytest.raises(ConfigError) as err:
            parse_partition_spec(bad, source="test")
        assert PARTITION_SPEC_EXAMPLES[0] in str(err.value)

    def test_more_partitions_than_units_raises(self):
        spec = ",".join(f"p{i}" for i in range(64))
        with pytest.raises(ConfigError):
            _pmap(spec)

    def test_env_knob_validated_at_construction(self):
        with pytest.raises(ConfigError) as err:
            make_cluster_platform(num_devices=1, partitions="nope:0")
        assert "from partitions:" in str(err.value)

    def test_env_knob_applies(self):
        platform = make_cluster_platform(num_devices=1, partitions="a:1,b:1")
        assert platform.runtime.partitions.names == ("a", "b")

    def test_empty_env_disables(self):
        """Unset / empty = the one-partition map owning the whole device."""
        platform = make_cluster_platform(num_devices=1, partitions="")
        pmap = platform.runtime.partitions
        assert len(pmap) == 1
        only = pmap.default
        assert (only.num_units, only.channels, only.l2_sets) == (
            pmap.total_units, pmap.total_channels, pmap.total_l2_sets)
        device = platform.device
        assert len(device.partitions) == 1
        assert device.partitions[0].l2 is device.l2
        assert device.partitions[0].dram is device.dram

    def test_argument_beats_env(self):
        # the argument overrides the config field
        cluster = ClusterConfig(num_devices=1, partitions="a:1,b:1")
        platform = make_cluster_platform(cluster=cluster, partitions="x:1,y:3")
        assert platform.runtime.partitions.names == ("x", "y")

    def test_cluster_config_field_validated(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_devices=1, partitions="bad:")

    def test_cluster_config_field_applies(self):
        cluster = ClusterConfig(num_devices=1, partitions="a:3,b:1")
        platform = make_cluster_platform(cluster=cluster)
        assert platform.runtime.partitions.names == ("a", "b")


# ---------------------------------------------------------------------------
# apportionment conservation (property)
# ---------------------------------------------------------------------------

names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6),
    min_size=1, max_size=8, unique=True,
)
weights = st.integers(min_value=1, max_value=16)


class TestApportionment:
    @given(parts=names.flatmap(
        lambda ns: st.tuples(st.just(ns),
                             st.lists(weights, min_size=len(ns),
                                      max_size=len(ns)))))
    @settings(max_examples=60, deadline=None)
    def test_shares_sum_exactly_to_device_totals(self, parts):
        ns, ws = parts
        spec = ",".join(f"{n}:{w}" for n, w in zip(ns, ws))
        pmap = _pmap(spec)
        assert sum(s.num_units for s in pmap.shares) == pmap.total_units
        assert sum(s.channels for s in pmap.shares) == pmap.total_channels
        assert sum(s.l2_sets for s in pmap.shares) == pmap.total_l2_sets
        for share in pmap.shares:
            assert share.num_units >= 1
            assert share.channels >= 1
            assert share.l2_sets >= 1

    @given(parts=names.flatmap(
        lambda ns: st.tuples(st.just(ns),
                             st.lists(weights, min_size=len(ns),
                                      max_size=len(ns)))))
    @settings(max_examples=60, deadline=None)
    def test_unit_ranges_partition_the_device(self, parts):
        ns, ws = parts
        spec = ",".join(f"{n}:{w}" for n, w in zip(ns, ws))
        pmap = _pmap(spec)
        covered = []
        for share in pmap.shares:
            covered.extend(share.units)
        assert sorted(covered) == list(range(pmap.total_units))

    @given(parts=names.flatmap(
        lambda ns: st.tuples(st.just(ns),
                             st.lists(weights, min_size=len(ns),
                                      max_size=len(ns)))))
    @settings(max_examples=30, deadline=None)
    def test_bandwidth_shares_sum_to_device_bandwidth(self, parts):
        ns, ws = parts
        spec = ",".join(f"{n}:{w}" for n, w in zip(ns, ws))
        system = SystemConfig()
        pmap = resolve_partitions(spec, system, source="test")
        total_bw = sum(s.bandwidth_bytes_per_ns for s in pmap.shares)
        device_bw = (system.cxl_dram.channels
                     * pmap.shares[0].channel_bw_bytes_per_ns)
        assert total_bw == pytest.approx(device_bw)

    def test_map_invariant_rejects_bad_totals(self):
        pmap = _pmap("a:1,b:1")
        with pytest.raises(ConfigError):
            PartitionMap(spec=pmap.spec, shares=pmap.shares,
                         total_units=pmap.total_units + 1,
                         total_channels=pmap.total_channels,
                         total_l2_sets=pmap.total_l2_sets)


# ---------------------------------------------------------------------------
# placement / launch isolation (property)
# ---------------------------------------------------------------------------

def _run_pinned(platform, partition: str, n: int = 1 << 10) -> None:
    runtime = platform.runtime
    a = np.arange(n, dtype=np.int64)
    addr_a = runtime.alloc_array(a, partition=partition)
    addr_b = runtime.alloc_array(a, partition=partition)
    addr_c = runtime.alloc(a.nbytes, partition=partition)
    kid = runtime.register_kernel(VECADD, name=f"pin.{partition}")
    runtime.launch_kernel(kid, addr_a, addr_a + a.nbytes,
                          args=pack_args(addr_b, addr_c))


class TestPlacementIsolation:
    def test_alloc_partition_requires_partitioned_cluster(self):
        platform = make_cluster_platform(num_devices=1)
        with pytest.raises(ConfigError):
            platform.runtime.alloc(4096, partition="rt")

    def test_alloc_unknown_partition_raises(self):
        platform = make_cluster_platform(num_devices=1,
                                         partitions="rt:1,batch:1")
        with pytest.raises(ConfigError):
            platform.runtime.alloc(4096, partition="nope")

    @pytest.mark.parametrize("pin", ["rt", "batch"])
    def test_pinned_launches_complete_only_in_their_partition(self, pin):
        platform = make_cluster_platform(num_devices=2,
                                         partitions="rt:1,batch:3")
        _run_pinned(platform, pin)
        stats = platform.stats
        other = "batch" if pin == "rt" else "rt"
        assert stats.get(f"partition.{pin}.kernels_completed") > 0
        assert stats.get(f"partition.{other}.kernels_completed") == 0

    @given(weight_a=st.integers(1, 8), weight_b=st.integers(1, 8),
           pin_first=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_no_cross_partition_shard_or_launch(self, weight_a, weight_b,
                                                pin_first):
        spec = f"a:{weight_a},b:{weight_b}"
        platform = make_cluster_platform(num_devices=2, partitions=spec)
        pin = "a" if pin_first else "b"
        runtime = platform.runtime
        n = 1 << 9
        arr = np.arange(n, dtype=np.int64)
        addr = runtime.alloc_array(arr, partition=pin)
        shard = runtime.shard_map(addr)
        assert shard.partition == pin
        assert shard.active_partition == pin
        _run_pinned(platform, pin, n=n)
        other = "b" if pin_first else "a"
        assert platform.stats.get(
            f"partition.{other}.kernels_completed") == 0

    def test_unpinned_launches_run_in_default_partition(self):
        platform = make_cluster_platform(num_devices=1,
                                         partitions="first:1,second:1")
        runtime = platform.runtime
        n = 1 << 9
        arr = np.arange(n, dtype=np.int64)
        addr_a = runtime.alloc_array(arr)
        addr_b = runtime.alloc_array(arr)
        addr_c = runtime.alloc(arr.nbytes)
        kid = runtime.register_kernel(VECADD, name="unpinned")
        runtime.launch_kernel(kid, addr_a, addr_a + arr.nbytes,
                              args=pack_args(addr_b, addr_c))
        assert platform.stats.get(
            "partition.first.kernels_completed") > 0
        assert platform.stats.get(
            "partition.second.kernels_completed") == 0

    def test_results_byte_identical_across_partitioning(self):
        """The same unpinned workload computes identical bytes whether
        the device is partitioned or not (timing may differ, bytes not)."""
        outs = []
        for spec in (None, "a:1,b:1"):
            platform = make_cluster_platform(num_devices=2, partitions=spec)
            runtime = platform.runtime
            n = 1 << 10
            a = np.arange(n, dtype=np.int64)
            addr_a = runtime.alloc_array(a)
            addr_b = runtime.alloc_array(a * 3)
            addr_c = runtime.alloc(a.nbytes)
            kid = runtime.register_kernel(VECADD, name="ident")
            runtime.launch_kernel(kid, addr_a, addr_a + a.nbytes,
                                  args=pack_args(addr_b, addr_c))
            outs.append(bytes(runtime.physical.read_bytes(addr_c, a.nbytes)))
        assert outs[0] == outs[1]
        assert outs[0] == (np.arange(1 << 10, dtype=np.int64) * 4).tobytes()


# ---------------------------------------------------------------------------
# the unpartitioned device is the one-partition map
# ---------------------------------------------------------------------------

class TestOnePartitionMap:
    def _launch(self, platform, tag):
        """Launch VECADD on device 0 with a raw partition tag; returns the
        M2func return value (instance id, or a negative ERR code)."""
        n = 256
        a = np.arange(n, dtype=np.int64)
        cluster = platform.runtime
        addr_a = cluster.alloc_array(a)
        addr_b = cluster.alloc_array(a)
        addr_c = cluster.alloc(a.nbytes)
        kid = cluster.register_kernel(VECADD, name="abi")
        handle = cluster.runtimes[0].launch_async(
            kid, addr_a, addr_a + a.nbytes,
            args=pack_args(addr_b, addr_c), partition=tag)
        cluster.sim.run()
        return handle.call.value

    @pytest.mark.parametrize("tag", [None, 0])
    def test_default_device_accepts_untagged_and_tag_zero(self, tag):
        platform = make_cluster_platform(num_devices=1)
        assert self._launch(platform, tag) > 0
        assert platform.stats.get("ndp.kernels_completed") == 1

    def test_default_device_rejects_tag_one(self):
        platform = make_cluster_platform(num_devices=1)
        assert self._launch(platform, 1) == ERR_BAD_ARGS

    def test_one_entry_spec_equals_the_default(self):
        """``partitions="solo"`` is the unpartitioned device under another
        name: same timing, same bytes, same counters (no ``l2.solo`` /
        ``partition.solo.*`` beside the device-wide pair)."""
        def run(spec):
            platform = make_cluster_platform(num_devices=2, partitions=spec)
            launches = recorded_launches(platform.runtime)
            engine = ServingEngine(platform, [
                TenantSpec("scan", "olap", size=1 << 12, slices=4,
                           arrivals=ArrivalSpec(rate_rps=2e5, requests=12)),
                TenantSpec("kv", "kvstore",
                           arrivals=ArrivalSpec(rate_rps=2e6, requests=40)),
            ], monitoring=False)
            report = engine.run()
            assert report.correct
            runtimes_ns = [
                inst.runtime_ns for handle in launches
                for inst in platform.runtime.instances_of(handle).instances]
            assert runtimes_ns
            return (runtimes_ns, report.span_ns,
                    engine.result_snapshots(), platform.stats.snapshot())

        assert run("solo") == run(None)


# ---------------------------------------------------------------------------
# manifest sidecar
# ---------------------------------------------------------------------------

class TestManifest:
    def test_partition_map_lands_in_manifest(self):
        from repro.obs.export import run_manifest
        platform = make_cluster_platform(num_devices=1,
                                         partitions="rt:1,batch:3")
        manifest = run_manifest(seed=1,
                                partitions=platform.runtime.partitions)
        names = [p["name"] for p in manifest["partitions"]["partitions"]]
        assert names == ["rt", "batch"]
        assert manifest["partitions"]["spec"] == "rt:1,batch:3"

    def test_unpartitioned_manifest_has_no_partitions_key(self):
        from repro.obs.export import run_manifest
        assert "partitions" not in run_manifest(seed=1, partitions=None)
