"""Scatter-batched point serving: byte-identity, determinism, guards.

Scatter batching fuses arbitrary same-kernel point requests (KVStore
GETs) into one wide launch over a staging ring.  The whole optimization
is only admissible if it is invisible to everything but the clock:
these tests diff the scatter path against unbatched dispatch
(``max_batch=1``: every launch the plain ``KVS_GET``) on the batched and
the interpreter tier across a grid of load points, and pin the batcher's
contiguity guard for the classic slice-merged mode.
"""

import pytest

from repro.cluster import make_cluster_platform
from repro.errors import ConfigError
from repro.serve import ArrivalSpec, BatchPolicy, ServingEngine, TenantSpec
from repro.serve.batcher import DynamicBatcher
from repro.serve.qos import Request, RequestQueue


def _run_kv(backend, *, rate_rps, requests, max_batch, items=256):
    platform = make_cluster_platform(num_devices=1, backend=backend)
    tenants = [
        TenantSpec("kv", "kvstore",
                   arrivals=ArrivalSpec("poisson", rate_rps=rate_rps,
                                        requests=requests),
                   size=items),
    ]
    engine = ServingEngine(platform, tenants,
                           batch=BatchPolicy(max_batch=max_batch))
    report = engine.run()
    return platform, report, engine.result_snapshots()


class TestScatterDifferential:
    @pytest.mark.parametrize("rate_rps,requests,max_batch", [
        (1e7, 24, 4),       # light load: mostly singleton batches
        (4e7, 40, 8),       # heavy load: wide fused batches
        (2e7, 32, 16),      # max_batch above what load can fill
    ])
    def test_scatter_is_invisible_except_for_launches(
            self, rate_rps, requests, max_batch):
        kwargs = dict(rate_rps=rate_rps, requests=requests)
        platform, on, snap_on = _run_kv("batched", max_batch=max_batch,
                                        **kwargs)
        _, off, snap_off = _run_kv("batched", max_batch=1, **kwargs)
        _, interp, snap_interp = _run_kv("interpreter", max_batch=1,
                                         **kwargs)

        for report in (on, off, interp):
            assert report.correct
        # byte-identical result memory across all three configurations
        assert snap_on == snap_off == snap_interp
        # identical admission outcomes: same served/shed on every path
        for a, b in ((on, off), (on, interp)):
            assert a.served == b.served
            assert a.tenant("kv").shed == b.tenant("kv").shed
        # the only visible difference: fewer launches under load
        assert on.launches <= off.launches
        if rate_rps >= 4e7:
            assert on.launches < off.launches
            assert on.mean_batch > 1.0
        # one-µthread divergent GETs never fall back to the interpreter
        assert platform.stats.get("exec.batched_fallbacks") == 0

    def test_scatter_runs_are_deterministic(self):
        kwargs = dict(rate_rps=4e7, requests=30, max_batch=8)
        _, first, snap_a = _run_kv("batched", **kwargs)
        _, second, snap_b = _run_kv("batched", **kwargs)
        assert snap_a == snap_b
        assert first.launches == second.launches
        assert first.aggregate.samples == second.aggregate.samples
        assert first.p95_ns == second.p95_ns


class TestContiguityGuard:
    def test_take_rejects_gapped_slice_run(self):
        # the slice-merged mode launches over [lo, hi); a gapped run would
        # compute slices nobody asked for.  take() decides the fusable
        # prefix on the very entries it extracts, so a gap ends the batch
        # and the covering range is exactly what its members asked for.
        batcher = DynamicBatcher(BatchPolicy(max_batch=4))
        queue = RequestQueue()
        gapped = [
            Request("t", 0, 0, 0.0, "interactive", float("inf"), 0, 1),
            Request("t", 1, 1, 0.0, "interactive", float("inf"), 5, 6),
        ]
        for request in gapped:
            queue.push(request)
        for request in gapped:
            batch = batcher.take(queue, "t", fuse="slices")
            assert batch.requests == [request]
            assert (batch.slice_lo, batch.slice_hi) == (request.slice_lo,
                                                        request.slice_hi)
        with pytest.raises(ConfigError, match="no queued requests"):
            batcher.take(queue, "t", fuse="slices")

    def test_take_accepts_contiguous_and_duplicate_slices(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=4))
        queue = RequestQueue()
        for req in (
            Request("t", 0, 0, 0.0, "interactive", float("inf"), 0, 2),
            Request("t", 1, 1, 0.0, "interactive", float("inf"), 2, 3),
            Request("t", 2, 2, 0.0, "interactive", float("inf"), 0, 2),
        ):
            queue.push(req)
        batch = batcher.take(queue, "t", fuse="slices")
        assert batch.size == 3
        assert (batch.slice_lo, batch.slice_hi) == (0, 3)
        assert not batch.scatter
