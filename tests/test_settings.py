"""One rule checks every numeric and flag setting.

Each int, float or bool field of a settings dataclass declares its
domain once (``repro.errors.setting``) and ``__post_init__`` runs the one
checker over them; constructor arguments that are not fields call the
same :func:`repro.errors.check`.  A bad value fails at construction with
a :class:`ConfigError` naming the argument and the value.
"""

import dataclasses
import math

import pytest

from repro.cluster import make_cluster_platform
from repro.config import (
    CacheConfig,
    ClusterConfig,
    CXLConfig,
    DRAMConfig,
    DRAMTiming,
    GPUConfig,
    NDPConfig,
    gpu_ndp_config,
    lpddr5_cxl_dram,
)
from repro.errors import FLAG, ConfigError, Domain, check
from repro.faults.plan import FaultEvent
from repro.serve import ServingEngine, TenantSpec
from repro.serve.arrivals import ArrivalSpec
from repro.serve.autoscaler import AutoscalePolicy
from repro.serve.batcher import BatchPolicy
from repro.serve.qos import QoSScheduler
from repro.serve.resilience import RetryPolicy
from repro.sim.clock import Clock
from repro.workloads.base import make_platform

NAN, INF = math.nan, math.inf

SETTINGS_CLASSES = [
    DRAMTiming, DRAMConfig, CacheConfig, CXLConfig, NDPConfig, GPUConfig,
    ClusterConfig, Clock, ArrivalSpec, TenantSpec, RetryPolicy,
    AutoscalePolicy, BatchPolicy, QoSScheduler, FaultEvent,
]


def _engine(**kwargs):
    platform = make_cluster_platform(num_devices=1)
    return ServingEngine(platform, [TenantSpec("t", "vecadd")], **kwargs)


#: (build(value), the argument's name, a value outside its domain)
PROBES = [
    (lambda v: ArrivalSpec(rate_rps=v), "rate_rps", NAN),
    (lambda v: ArrivalSpec(rate_rps=v), "rate_rps", INF),
    (lambda v: ArrivalSpec(requests=v), "requests", 2.5),
    (lambda v: ArrivalSpec(requests=v), "requests", True),
    (lambda v: ArrivalSpec("bursty", burst_rate_rps=v), "burst_rate_rps",
     NAN),
    (lambda v: ArrivalSpec("closed", think_ns=v), "think_ns", NAN),
    (lambda v: ArrivalSpec("trace", times=(v,)), "times", NAN),
    (lambda v: TenantSpec("t", "vecadd", weight=v), "weight", NAN),
    (lambda v: TenantSpec("t", "vecadd", weight=v), "weight", INF),
    (lambda v: TenantSpec("t", "vecadd", slo_ns=v), "slo_ns", NAN),
    (lambda v: TenantSpec("t", "vecadd", slices=v), "slices", 2.5),
    (lambda v: TenantSpec("t", "vecadd", size=v), "size", 1.5),
    (lambda v: TenantSpec("t", "vecadd", burst=v), "burst", -1.0),
    (lambda v: TenantSpec("t", "vecadd", rate_limit_rps=v),
     "rate_limit_rps", NAN),
    (lambda v: TenantSpec("t", "vecadd", hedge_delay_ns=v),
     "hedge_delay_ns", NAN),
    (lambda v: RetryPolicy(max_retries=v), "max_retries", 1.5),
    (lambda v: RetryPolicy(backoff_factor=v), "backoff_factor", NAN),
    (lambda v: RetryPolicy(jitter_ns=v), "jitter_ns", NAN),
    (lambda v: RetryPolicy(jitter_ns=v), "jitter_ns", INF),
    (lambda v: AutoscalePolicy(interval_ns=v), "interval_ns", NAN),
    (lambda v: AutoscalePolicy(min_devices=v), "min_devices", 1.5),
    (lambda v: ArrivalSpec("diurnal", period_ns=v), "period_ns", NAN),
    (lambda v: FaultEvent("device_stall", at_ns=0.0, duration_ns=v),
     "duration_ns", NAN),
    (lambda v: FaultEvent("device_fail", at_ns=0.0, device=v), "device",
     1.5),
    (lambda v: FaultEvent("poison", at_ns=0.0, size=v), "size", 1.5),
    (lambda v: ClusterConfig(num_devices=v), "num_devices", 1.5),
    (lambda v: ClusterConfig(shard_bytes=v), "shard_bytes", NAN),
    (lambda v: CXLConfig(load_to_use_ns=v), "load_to_use_ns", NAN),
    (lambda v: CXLConfig(bw_per_dir_bytes_per_ns=v),
     "bw_per_dir_bytes_per_ns", -1.0),
    (lambda v: NDPConfig(freq_ghz=v), "freq_ghz", NAN),
    (lambda v: NDPConfig(issue_width=v), "issue_width", 0),
    (lambda v: NDPConfig(scratchpad_bytes=v), "scratchpad_bytes", -1),
    (lambda v: GPUConfig(num_sms=v), "num_sms", 0),
    (lambda v: GPUConfig(freq_ghz=v), "freq_ghz", NAN),
    (lambda v: Clock.from_ghz(v), "freq_ghz", NAN),
    (lambda v: QoSScheduler(starvation_ns=v), "starvation_ns", NAN),
    (lambda v: make_platform(queue_capacity=v), "queue_capacity", 0),
    (lambda v: _engine(inflight_per_device=v), "inflight_per_device", 1.5),
    (lambda v: _engine(inflight_per_device=v), "inflight_per_device", True),
    (lambda v: _engine(starvation_ns=v), "starvation_ns", NAN),
    (lambda v: BatchPolicy(max_wait_ns=v), "max_wait_ns", NAN),
    (lambda v: ArrivalSpec("closed", clients=v), "clients", True),
    (lambda v: ArrivalSpec("closed", clients=v), "clients", 1.5),
    # the serving engine configures admission from these limits alone
    (lambda v: TenantSpec("t", "vecadd", rate_limit_rps=v),
     "rate_limit_rps", -1.0),
    (lambda v: TenantSpec("t", "vecadd", burst=v), "burst", 0.5),
    (lambda v: gpu_ndp_config(v), "num_sms", NAN),
    (lambda v: gpu_ndp_config(v), "num_sms", INF),
    (lambda v: gpu_ndp_config(v), "num_sms", True),
    # a burst must lie inside one 256 B interleave granule
    (lambda v: dataclasses.replace(lpddr5_cxl_dram(), access_granularity=v),
     "access_granularity", 48),
]


@pytest.mark.parametrize(
    "build, name, value", PROBES,
    ids=[f"{name}={value!r}-{i}" for i, (_, name, value) in
         enumerate(PROBES)])
def test_out_of_domain_value_fails_at_construction(build, name, value):
    with pytest.raises(ConfigError) as err:
        build(value)
    text = str(err.value)
    assert name in text
    assert repr(value) in text


def _numeric_fields(cls):
    return [spec for spec in dataclasses.fields(cls)
            if spec.type in ("int", "float", "bool")
            and not spec.name.startswith("_")]


@pytest.mark.parametrize("cls", SETTINGS_CLASSES,
                         ids=[cls.__name__ for cls in SETTINGS_CLASSES])
def test_every_numeric_or_flag_field_declares_a_domain(cls):
    fields = _numeric_fields(cls)
    assert fields
    for spec in fields:
        domain = spec.metadata.get("domain")
        assert isinstance(domain, Domain), f"{cls.__name__}.{spec.name}"
        assert (domain is FLAG) == (spec.type == "bool"), spec.name
        if spec.default is not dataclasses.MISSING:
            check(cls.__name__, spec.name, spec.default, domain)


def test_only_documented_fields_admit_infinity():
    infinite = {(cls.__name__, spec.name) for cls in SETTINGS_CLASSES
                for spec in _numeric_fields(cls)
                if spec.metadata["domain"].infinite}
    assert infinite == {("TenantSpec", "slo_ns")}


def test_message_names_owner_domain_and_value():
    with pytest.raises(ConfigError) as err:
        BatchPolicy(max_batch=0)
    assert str(err.value) == ("max_batch argument of BatchPolicy must be "
                              "an integer >= 1, got 0")
    with pytest.raises(ConfigError) as err:
        TenantSpec("web", "vecadd", weight=-1.0)
    assert str(err.value) == ("weight argument of TenantSpec 'web' must be "
                              "a positive finite number, got -1.0")


def test_values_are_stored_as_passed():
    assert type(BatchPolicy(max_wait_ns=100).max_wait_ns) is int
    assert TenantSpec("t", "vecadd", slo_ns=INF).slo_ns == INF
