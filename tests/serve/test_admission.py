"""Token bucket and admission controller unit behavior."""

import pytest

from repro.errors import ConfigError
from repro.serve import admission
from repro.serve.admission import (
    ADMIT,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMIT,
    AdmissionController,
    TokenBucket,
)


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate_per_ns=1e-3, burst=4)   # 1 token per µs
        taken = sum(bucket.try_take(0.0) for _ in range(6))
        assert taken == 4

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_per_ns=1e-3, burst=2)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(100.0)      # 0.1 token refilled
        assert bucket.try_take(1_100.0)        # > 1 token refilled

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_ns=1e-3, burst=3)
        for _ in range(3):
            assert bucket.try_take(0.0)
        taken = sum(bucket.try_take(1e9) for _ in range(10))
        assert taken == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate_per_ns=0.0, burst=4)
        with pytest.raises(ConfigError):
            TokenBucket(rate_per_ns=1.0, burst=0.5)


class TestAdmissionController:
    def test_unconfigured_tenant_always_admits(self):
        controller = AdmissionController()
        assert controller.admit("free", 0.0, queue_depth=10 ** 6) == ADMIT

    def test_queue_depth_checked_before_tokens(self, monkeypatch):
        monkeypatch.setattr(admission, "MAX_QUEUE_DEPTH", 2)
        controller = AdmissionController()
        controller.configure("t", rate_limit_rps=1e6, burst=1.0)
        assert controller.admit("t", 0.0, queue_depth=2) == SHED_QUEUE_FULL
        # the full-queue shed must not have burned the single token
        assert controller.admit("t", 0.0, queue_depth=0) == ADMIT

    def test_rate_limit_shed(self):
        controller = AdmissionController()
        controller.configure("t", rate_limit_rps=1e6, burst=1.0)
        assert controller.admit("t", 0.0, queue_depth=0) == ADMIT
        assert controller.admit("t", 0.0, queue_depth=0) == SHED_RATE_LIMIT
