"""Partitioning experiment: blast-radius isolation for multi-tenant serving.

An interactive KVStore tenant shares a cluster with an adversarial batch
VectorAdd tenant (large launches, no rate limit) in two hardware modes:

``shared``       the pre-partitioning cluster — every launch competes for
                 the same sub-cores, L2 slices and DRAM channels.
``partitioned``  each device is split ``rt:1,batch:2,spare:1``; the
                 interactive tenant pins to ``rt``, the adversary to
                 ``batch``, and ``spare`` idles as fail-over headroom.

Each mode also runs *solo* (the interactive tenant alone) so the sweep
reports the noisy-neighbour penalty as ``p99(with adversary) /
p99(solo)`` per mode.  Expected shape (gated by
``benchmarks/figures.py``): the shared penalty is measurably above 1
while the partitioned penalty stays within a few percent — the adversary
physically cannot touch the ``rt`` partition's units, cache slices or
channels.

The chaos rows arm a **partition-scoped** kill of the adversary's
partition mid-traffic: detection fails only that partition's in-flight
work, health marks ``devN.batch`` DOWN while the device stays routable,
pinned shards fail over to the ``spare`` partition, and the interactive
tenant must come through byte-identical to the fault-free run —
the containment guarantee the incident bundle's per-partition blast
radius records.
"""

from __future__ import annotations

from repro.cluster import make_cluster_platform
from repro.experiments.common import EXPERIMENT_BACKEND, ExperimentResult
from repro.faults import FaultEvent, FaultPlan
from repro.obs.incidents import blast_radius, by_partition, grade_against_plan
from repro.serve import ArrivalSpec, RetryPolicy, ServingEngine, TenantSpec

#: Partition spec under test: interactive slice, adversary slice, and a
#: spare partition kept empty as the partition-kill fail-over target.
PARTITION_SPEC = "rt:1,batch:2,spare:1"


def _interactive(requests: int, partition: str | None) -> TenantSpec:
    return TenantSpec(
        "rt", "kvstore",
        arrivals=ArrivalSpec("poisson", rate_rps=2e6, requests=requests),
        qos_class="interactive", slo_ns=150_000.0, size=512,
        placement="replicated", partition=partition,
        get_fraction=0.9,
        retry=RetryPolicy(max_retries=2, backoff_ns=500.0,
                          deadline_aware=True),
    )


def _adversary(requests: int, partition: str | None) -> TenantSpec:
    """Batch tenant sized to saturate whatever hardware it can reach."""
    return TenantSpec(
        "noisy", "vecadd",
        arrivals=ArrivalSpec("poisson", rate_rps=4e6, requests=requests),
        qos_class="batch", size=1 << 16, slices=4,
        partition=partition,
        # a retry budget so work stranded by a partition kill replays on
        # the spare partition after fail-over
        retry=RetryPolicy(max_retries=2, backoff_ns=1_000.0),
    )


def _run(tenants, num_devices: int, partitions: str | None,
         plan: FaultPlan | None = None, monitoring: bool | None = None):
    platform = make_cluster_platform(num_devices=num_devices,
                                     backend=EXPERIMENT_BACKEND,
                                     partitions=partitions)
    injector = (platform.runtime.arm_faults(plan)
                if plan is not None else None)
    engine = ServingEngine(platform, tenants, monitoring=monitoring)
    report = engine.run()
    return platform, engine, injector, report


def blast_radius_confined(ring: list[dict], partition: str) -> bool:
    """Whether the partition-attributed events of ``ring`` all name
    ``dev*.<partition>`` (and some do): a fault scoped to that partition
    stayed inside it."""
    radius = blast_radius(ring, by_partition)
    return bool(radius) and all(key.endswith(f".{partition}")
                                for key in radius)


def run_partitioning(requests: int = 48,
                     adversary_requests: int = 24,
                     num_devices: int = 2) -> ExperimentResult:
    """Shared vs partitioned serving under an adversarial batch tenant."""
    result = ExperimentResult(
        "partitioning",
        f"Hardware partitioning vs shared on {num_devices} devices "
        f"({PARTITION_SPEC!r}, {EXPERIMENT_BACKEND} backend)",
    )
    for mode, spec in (("shared", None), ("partitioned", PARTITION_SPEC)):
        rt_pin = "rt" if spec else None
        noisy_pin = "batch" if spec else None
        _, _, _, solo = _run(
            [_interactive(requests, rt_pin)], num_devices, spec,
        )
        solo_p99 = solo.tenant("rt").p99_ns
        platform, _, _, report = _run(
            [_interactive(requests, rt_pin),
             _adversary(adversary_requests, noisy_pin)],
            num_devices, spec,
        )
        rt = report.tenant("rt")
        noisy = report.tenant("noisy")
        result.add(
            mode=mode,
            rt_solo_p99_ns=solo_p99,
            rt_p99_ns=rt.p99_ns if rt.served else 0.0,
            rt_p99_vs_solo=(rt.p99_ns / solo_p99
                            if rt.served and solo_p99 else 0.0),
            rt_slo_att=rt.slo_attainment,
            rt_served=rt.served,
            noisy_served=noisy.served,
            noisy_p99_ns=noisy.p99_ns if noisy.served else 0.0,
            correct=rt.correct and noisy.correct,
        )
    result.headline = {"correct": all(result.column("correct"))}
    for row in result.rows:
        result.headline.update({f"{row['mode']}_{key}": value
                                for key, value in row.items()
                                if key != "mode"})
    result.notes = (
        "rt_p99_vs_solo is the noisy-neighbour penalty; the partitioned "
        "row must stay near 1.0 while the shared row degrades"
    )
    return result


def run_partitioning_containment(requests: int = 48,
                                 adversary_requests: int = 24,
                                 num_devices: int = 2) -> ExperimentResult:
    """Partition-scoped kill: blast radius, fail-over and containment.

    The adversary's ``batch`` partition on device 0 is killed
    mid-traffic.  Containment means the interactive tenant's result
    bytes are identical to the fault-free run, its accounting identity
    holds, the device stays routable, and the adversary's pinned shards
    fail over to the ``spare`` partition.
    """
    result = ExperimentResult(
        "partitioning-containment",
        f"Partition-scoped kill on {num_devices} devices "
        f"({PARTITION_SPEC!r}, {EXPERIMENT_BACKEND} backend)",
    )
    tenants = lambda: [_interactive(requests, "rt"),
                       _adversary(adversary_requests, "batch")]
    _, baseline_engine, _, baseline = _run(
        tenants(), num_devices, PARTITION_SPEC,
    )
    baseline_rt_bytes = baseline_engine.result_snapshots()["rt"]

    horizon_ns = requests / 2e6 * 1e9
    plan = FaultPlan(events=(
        FaultEvent("device_fail", at_ns=horizon_ns * 0.25, device=0,
                   partition="batch"),
    ))
    platform, engine, injector, report = _run(
        tenants(), num_devices, PARTITION_SPEC,
        plan=plan, monitoring=True,
    )
    rt = report.tenant("rt")
    noisy = report.tenant("noisy")
    stats = platform.stats
    grade = grade_against_plan(injector, engine.monitoring.monitor.alerts)
    # every ring row the incident bundles froze
    frozen = [row for bundle in engine.monitoring.reporter.bundles
              for row in bundle["ring"]]
    result.add(
        fault="partition_kill(dev0.batch)",
        rt_served=rt.served,
        rt_slo_att=rt.slo_attainment,
        rt_bytes_identical=(engine.result_snapshots()["rt"]
                            == baseline_rt_bytes),
        rt_accounted=rt.accounting_ok,
        noisy_served=noisy.served,
        noisy_accounted=noisy.accounting_ok,
        partition_kills=int(stats.get("fault.partition_kills")),
        partition_detections=int(stats.get("fault.partition_detections")),
        failovers=int(stats.get("recovery.partition_failovers")),
        alert_recall=grade["recall"],
        blast_radius_confined=blast_radius_confined(frozen, "batch"),
        **{f"{name}_kernels":
           int(stats.get(f"partition.{name}.kernels_completed"))
           for name in platform.runtime.partitions.names},
        rt_correct=rt.correct,
    )
    result.headline = {key: value for key, value in result.rows[0].items()
                       if key != "fault"}
    result.headline["correct"] = rt.correct
    result.notes = (
        "rt_bytes_identical gates the containment guarantee: a kill "
        "scoped to dev0.batch may not perturb one byte of the rt "
        "partition's results"
    )
    return result


if __name__ == "__main__":
    print(run_partitioning().render())
    print()
    print(run_partitioning_containment().render())
