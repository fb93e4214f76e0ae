"""DynamicBatcher under each ``fuse`` mode, as properties over random
queues: ``take`` dispatches exactly what ``preview`` showed, "slices"
runs chain or duplicate, "scatter" runs never mix ``batch_key`` s."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatchPolicy, DynamicBatcher, Request, RequestQueue

FUSE_MODES = ("slices", "scatter")

#: (slice_lo, width, batch_key) per queued request, FIFO order
_requests = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 2), st.integers(0, 1)),
    min_size=1, max_size=12)


def _queue(rows):
    queue = RequestQueue()
    for i, (lo, width, key) in enumerate(rows):
        queue.push(Request("t", i, i, float(i), "interactive", float("inf"),
                           lo, lo + width, batch_key=key))
    return queue


@settings(max_examples=150, deadline=None)
@given(_requests, st.sampled_from(FUSE_MODES), st.integers(1, 6))
def test_take_drains_the_queue_in_previewed_runs(rows, fuse, max_batch):
    batcher = DynamicBatcher(BatchPolicy(max_batch=max_batch,
                                         max_wait_ns=0.0))
    queue = _queue(rows)
    taken = []
    while queue.depth("t"):
        run = batcher.preview(queue, "t", fuse)
        batch = batcher.take(queue, "t", fuse)
        assert batch.requests == run
        assert 1 <= batch.size <= max_batch
        assert batch.scatter == (fuse == "scatter" and batch.size > 1)
        taken.extend(batch.requests)

        lo, hi = run[0].slice_lo, run[0].slice_hi
        for request in run[1:]:
            if fuse == "scatter":
                assert request.batch_key == run[0].batch_key
                lo = min(lo, request.slice_lo)
                hi = max(hi, request.slice_hi)
            else:                         # chains, or duplicates covered
                assert (request.slice_lo == hi
                        or (lo <= request.slice_lo
                            and request.slice_hi <= hi))
                hi = max(hi, request.slice_hi)
        assert (batch.slice_lo, batch.slice_hi) == (lo, hi)
    assert [r.index for r in taken] == list(range(len(rows)))   # FIFO kept


@settings(max_examples=60, deadline=None)
@given(_requests, st.sampled_from(FUSE_MODES))
def test_only_unfilled_slice_runs_hold(rows, fuse):
    batcher = DynamicBatcher(BatchPolicy(max_batch=4, max_wait_ns=500.0))
    queue = _queue(rows)
    run = batcher.preview(queue, "t", fuse)
    flush_at = batcher.should_hold(queue, "t", fuse, now_ns=0.0,
                                   more_arrivals=True)
    if fuse == "slices" and len(run) < 4:
        assert flush_at == run[0].arrival_ns + 500.0
    else:
        assert flush_at is None
    assert batcher.should_hold(queue, "t", fuse, now_ns=0.0,
                               more_arrivals=False) is None
