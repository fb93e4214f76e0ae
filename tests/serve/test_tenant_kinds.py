"""The tenant-kind contract, one table row per kind.

Every kind must name its ``fuse`` mode, label requests for the batcher
(``slice_of``), and turn a batch into a launch whose results its own
oracle accepts — identically whether requests are dispatched one by one
or fused.  A fourth kind is one more row of ``KINDS``.
"""

import pytest

from repro.cluster import make_cluster_platform
from repro.serve import (
    SERVE_KINDS,
    ArrivalSpec,
    BatchPolicy,
    Request,
    ServingEngine,
    TenantSpec,
    TenantWorkload,
)

#: kind -> (spec fields, fuse, {request index: slice_of(index)})
KINDS = {
    "vecadd": (dict(size=256, slices=4), "slices",
               {0: (0, 1), 3: (3, 4), 4: (0, 1), 9: (1, 2)}),
    "olap": (dict(size=512, slices=4), "slices",
             {0: (0, 1), 3: (3, 4), 4: (0, 1), 9: (1, 2)}),
    "kvstore": (dict(size=64), "scatter",
                {0: (0, 1), 3: (3, 4), 4: (4, 5), 9: (9, 10)}),
}
REQUESTS = 12


def _spec(kind):
    return TenantSpec("t", kind, **KINDS[kind][0],
                      arrivals=ArrivalSpec("poisson", rate_rps=1e9,
                                           requests=REQUESTS))


def _request(workload, index):
    lo, hi = workload.slice_of(index)
    return Request("t", index, index, 0.0, "interactive", float("inf"),
                   lo, hi, batch_key=workload.batch_group(index))


def test_table_covers_every_kind():
    assert set(KINDS) == set(SERVE_KINDS)


@pytest.mark.parametrize("kind", SERVE_KINDS)
def test_kind_contract(kind):
    _, fuse, slices = KINDS[kind]
    platform = make_cluster_platform(num_devices=2, backend="batched")
    workload = TenantWorkload(platform, _spec(kind), seed=7)
    assert workload.fuse == fuse
    assert {i: workload.slice_of(i) for i in slices} == slices
    assert workload.verify()              # nothing served: nothing to check
    # a fused pair, then a lone request, launched straight on the runtime
    for indices in ((0, 1), (2,)):
        batch = [_request(workload, i) for i in indices]
        assert len({r.batch_key for r in batch}) == 1
        plan = workload.plan(batch)
        assert plan.scatter == (fuse == "scatter" and len(batch) > 1)
        platform.runtime.launch_kernel(plan.kernel_id, plan.base, plan.bound,
                                       plan.args, stride=plan.stride)
        workload.note_served(batch)
    assert workload.verify()
    # the oracle really reads the result region: wipe request 0's result
    snapshot = workload.result_snapshot()
    impl = workload.impl
    platform.runtime.physical.write_bytes(
        impl.addrs[-1] if fuse == "slices" else impl.slots_addr,
        bytes(8))
    assert workload.result_snapshot() != snapshot
    assert not workload.verify()


@pytest.mark.parametrize("kind", SERVE_KINDS)
def test_snapshot_identical_batched_and_unbatched(kind):
    def run(max_batch):
        platform = make_cluster_platform(num_devices=2, backend="batched")
        engine = ServingEngine(
            platform, [_spec(kind)],
            batch=BatchPolicy(max_batch=max_batch, max_wait_ns=0.0))
        report = engine.run()
        assert report.correct and report.served == REQUESTS
        return report, engine.result_snapshots()

    single, single_bytes = run(1)
    fused, fused_bytes = run(8)
    assert single.launches == REQUESTS
    assert fused.launches < REQUESTS      # the kind's fuse mode engaged
    assert fused_bytes == single_bytes


def test_kv_oracle_checks_every_status_and_only_get_values():
    # a SET's slot reports its status only; a GET's slot also the value
    # it fetched (both come from the one result_snapshot read)
    platform = make_cluster_platform(num_devices=2, backend="batched")
    spec = TenantSpec("t", "kvstore", size=64, get_fraction=0.5,
                      arrivals=ArrivalSpec("poisson", rate_rps=1e9,
                                           requests=REQUESTS))
    workload = TenantWorkload(platform, spec, seed=7)
    impl = workload.impl
    for index in range(REQUESTS):
        batch = [_request(workload, index)]
        plan = workload.plan(batch)
        platform.runtime.launch_kernel(plan.kernel_id, plan.base, plan.bound,
                                       plan.args, stride=plan.stride)
        workload.note_served(batch)
    assert workload.verify()
    is_get = impl.data.is_get.tolist()
    get, put = is_get.index(True), is_get.index(False)
    physical = platform.runtime.physical

    def slot(index):
        return impl.slots_addr + index * 128

    physical.write_u64(slot(put), 12345)          # a SET's value word
    assert workload.verify()
    physical.write_u64(slot(put) + 64, 2)         # "inserted", not "updated"
    assert not workload.verify()
    physical.write_u64(slot(put) + 64, 1)
    assert workload.verify()
    physical.write_u64(slot(get), physical.read_u64(slot(get)) + 1)
    assert not workload.verify()
