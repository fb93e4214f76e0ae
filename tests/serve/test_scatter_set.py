"""Scatter-batched SET traffic: byte-identity, op splitting, validation.

The staging-ring scatter path now covers KVStore SETs as well as GETs.
A SET mutates the table, so the differential bar is higher than for
reads: fused, unbatched and interpreter-tier runs of a mixed GET/SET
stream must leave *identical* bytes behind — table memory included —
and a scatter batch must never mix ops (a GET descriptor is 5 words, a
SET descriptor 6; the batcher splits runs at the op boundary via
``Request.batch_key``).
"""

import pytest

from repro.cluster import make_cluster_platform
from repro.errors import ConfigError
from repro.serve import ArrivalSpec, BatchPolicy, ServingEngine, TenantSpec
from repro.serve.batcher import DynamicBatcher
from repro.serve.qos import Request, RequestQueue


def _run_mixed(backend, *, rate_rps, requests, max_batch, get_fraction,
               items=256, partitions=None, partition=None):
    platform = make_cluster_platform(num_devices=1, backend=backend,
                                     partitions=partitions)
    tenants = [
        TenantSpec("kv", "kvstore",
                   arrivals=ArrivalSpec("poisson", rate_rps=rate_rps,
                                        requests=requests),
                   size=items, get_fraction=get_fraction,
                   partition=partition),
    ]
    engine = ServingEngine(platform, tenants,
                           batch=BatchPolicy(max_batch=max_batch))
    report = engine.run()
    return platform, report, engine.result_snapshots()


class TestScatterSetDifferential:
    @pytest.mark.parametrize("rate_rps,requests,max_batch,get_fraction", [
        (1e7, 24, 4, 0.5),       # light load, even mix
        (4e7, 40, 8, 0.7),       # heavy load: wide fused batches
        (4e7, 32, 8, 0.0),       # all-SET stream
    ])
    def test_scatter_sets_are_invisible_except_for_launches(
            self, rate_rps, requests, max_batch, get_fraction):
        kwargs = dict(rate_rps=rate_rps, requests=requests,
                      get_fraction=get_fraction)
        _, on, snap_on = _run_mixed("batched", max_batch=max_batch, **kwargs)
        _, off, snap_off = _run_mixed("batched", max_batch=1, **kwargs)
        _, interp, snap_interp = _run_mixed("interpreter", max_batch=1,
                                            **kwargs)

        for report in (on, off, interp):
            assert report.correct
        # byte-identical memory across all three configurations — the
        # SET-mutated table included, not just the GET result slots
        assert snap_on == snap_off == snap_interp
        for a, b in ((on, off), (on, interp)):
            assert a.served == b.served
            assert a.tenant("kv").shed == b.tenant("kv").shed
        assert on.launches <= off.launches
        if rate_rps >= 4e7:
            assert on.launches < off.launches
            assert on.mean_batch > 1.0

    def test_mixed_scatter_runs_are_deterministic(self):
        kwargs = dict(rate_rps=4e7, requests=30, max_batch=8,
                      get_fraction=0.5)
        _, first, snap_a = _run_mixed("batched", **kwargs)
        _, second, snap_b = _run_mixed("batched", **kwargs)
        assert snap_a == snap_b
        assert first.launches == second.launches
        assert first.p95_ns == second.p95_ns

    def test_mixed_scatter_on_partitioned_cluster(self):
        """Pinned mixed GET/SET traffic completes entirely in its
        partition (the staging ring is partition-local too)."""
        kwargs = dict(rate_rps=4e7, requests=24, max_batch=8,
                      get_fraction=0.5, partitions="rt:1,batch:1",
                      partition="rt")
        platform, report, _ = _run_mixed("batched", **kwargs)
        assert report.correct
        assert platform.stats.get("partition.rt.kernels_completed") > 0
        assert platform.stats.get("partition.batch.kernels_completed") == 0


class TestOpHomogeneousBatches:
    def _req(self, index, batch_key):
        return Request("t", index, index, 0.0, "interactive", float("inf"),
                       0, 0, batch_key=batch_key)

    def test_preview_splits_runs_at_op_boundary(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8))
        queue = RequestQueue()
        # GET, GET, SET, GET at the head: the first preview must stop
        # before the SET even though max_batch has room
        for index, key in enumerate((0, 0, 1, 0)):
            queue.push(self._req(index, key))
        head = batcher.preview(queue, "t", fuse="scatter")
        assert [r.index for r in head] == [0, 1]
        assert all(r.batch_key == 0 for r in head)

    def test_preview_keeps_homogeneous_runs_whole(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8))
        queue = RequestQueue()
        for index in range(4):
            queue.push(self._req(index, 1))
        head = batcher.preview(queue, "t", fuse="scatter")
        assert len(head) == 4
        assert all(r.batch_key == 1 for r in head)


class TestGetFractionValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0])
    def test_out_of_range_get_fraction_rejected(self, bad):
        with pytest.raises(ConfigError, match="get_fraction"):
            TenantSpec("kv", "kvstore",
                       arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                            requests=4),
                       get_fraction=bad)

    def test_get_fraction_rejected_for_non_kvstore(self):
        with pytest.raises(ConfigError, match="kvstore"):
            TenantSpec("va", "vecadd",
                       arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                            requests=4),
                       get_fraction=0.5)
