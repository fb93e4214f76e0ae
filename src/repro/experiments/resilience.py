"""Resilience experiment: fault rate x placement x retry policy.

A serving tenant of OLAP scans (launches long enough that a mid-traffic
device kill strands real in-flight work) is replayed through the
:class:`~repro.serve.engine.ServingEngine` on a 4-device cluster under a
grid of chaos levels (healthy / one kill / kill+stall+flap), shard
placements (``replicated`` fail-over vs ``blocked`` re-copy) and retry
policies (none vs budgeted deadline-aware retries), reporting SLO
attainment, failed/retried counts, goodput and the recovery counters.

Expected shape (asserted by ``tests/faults``): with faults injected,
deadline-aware retries strictly dominate the no-retry baseline on
served count and SLO attainment; replicated placement recovers with
zero re-copy bytes while blocked placement pays the switch-charged
re-materialization; the healthy row is byte-identical to a run with no
fault injector armed at all.
"""

from __future__ import annotations

from repro.cluster import make_cluster_platform
from repro.experiments.common import EXPERIMENT_BACKEND, ExperimentResult
from repro.faults import FaultEvent, FaultPlan
from repro.obs.incidents import grade_against_plan
from repro.serve import ArrivalSpec, RetryPolicy, ServingEngine, TenantSpec

#: Chaos levels: label -> FaultPlan factory (taking the traffic horizon).
def _chaos_plans(horizon_ns: float) -> dict[str, FaultPlan]:
    mid = horizon_ns * 0.25
    return {
        "healthy": FaultPlan.none(),
        "kill": FaultPlan(events=(
            FaultEvent("device_fail", at_ns=mid, device=1),
        )),
        "chaos": FaultPlan(events=(
            FaultEvent("device_fail", at_ns=mid, device=1),
            FaultEvent("device_stall", at_ns=mid * 0.5, device=2,
                       duration_ns=horizon_ns * 4),
            FaultEvent("link_flap", at_ns=mid * 1.5, device=3,
                       duration_ns=horizon_ns * 4),
        )),
    }


#: Retry policies under test: label -> RetryPolicy.
RETRY_POLICIES = {
    "no-retry": RetryPolicy(max_retries=0),
    "retry3": RetryPolicy(max_retries=3, backoff_ns=500.0,
                          backoff_factor=2.0, jitter_ns=200.0,
                          deadline_aware=True),
}


def _tenant(placement: str, retry: RetryPolicy,
            requests: int) -> TenantSpec:
    return TenantSpec(
        "scan", "olap",
        arrivals=ArrivalSpec("poisson", rate_rps=2e6, requests=requests),
        qos_class="interactive", slo_ns=5_000_000.0,
        size=1 << 20, slices=4,
        placement=placement, retry=retry,
    )


def run_resilience(requests: int = 24,
                   num_devices: int = 4) -> ExperimentResult:
    """Chaos level x placement x retry sweep on one OLAP tenant."""
    result = ExperimentResult(
        "resilience",
        f"Fault injection on {num_devices} devices "
        f"(chaos x placement x retry, {EXPERIMENT_BACKEND} backend)",
    )
    horizon_ns = requests / 2e6 * 1e9       # expected traffic span
    for chaos, plan in _chaos_plans(horizon_ns).items():
        for placement in ("replicated", "blocked"):
            for policy_name, policy in RETRY_POLICIES.items():
                platform = make_cluster_platform(
                    num_devices=num_devices, backend=EXPERIMENT_BACKEND)
                platform.runtime.arm_faults(plan)
                engine = ServingEngine(
                    platform,
                    [_tenant(placement, policy, requests)],
                )
                report = engine.run()
                tenant = report.tenant("scan")
                stats = platform.stats
                result.add(
                    chaos=chaos,
                    placement=placement,
                    retry=policy_name,
                    served=tenant.served,
                    failed=tenant.failed,
                    retried=tenant.retried,
                    slo_att=tenant.slo_attainment,
                    goodput_rps=tenant.goodput_rps,
                    p99_ns=tenant.p99_ns if tenant.served else 0.0,
                    kills=int(stats.get("fault.device_kills")),
                    lost=int(stats.get("fault.lost_completions")),
                    failovers=int(stats.get("recovery.failovers")),
                    recopy_bytes=int(stats.get("recovery.recopy_bytes")),
                    accounted=tenant.accounting_ok,
                    correct=tenant.correct,
                )
    pairs = list(zip(result.rows[0::2], result.rows[1::2]))  # (no-retry, retry3)
    result.headline = {
        "accounted": all(result.column("accounted")),
        "correct": all(result.column("correct")),
        "healthy_failed_max": max(row["failed"] for row in result.rows
                                  if row["chaos"] == "healthy"),
        "healthy_retry_identical": all(
            (a["served"], a["p99_ns"]) == (b["served"], b["p99_ns"])
            for a, b in pairs if a["chaos"] == "healthy"),
        "retry_slo_gain_min": min(
            b["slo_att"] - a["slo_att"]
            for a, b in pairs if a["chaos"] != "healthy"),
        "retry_slo_min": min(b["slo_att"] for a, b in pairs
                             if a["chaos"] != "healthy"),
    }
    result.notes = (
        "replicated + deadline-aware retries is the resilient point: "
        "fail-over without re-copy, stranded launches replayed in budget"
    )
    return result


def run_resilience_monitoring(requests: int = 24,
                              num_devices: int = 4) -> ExperimentResult:
    """Chaos sweep with the monitoring stack grading itself.

    Same tenant and chaos levels as :func:`run_resilience` (replicated
    placement, deadline-aware retries) but run with the always-on
    monitor attached, reporting the *operational* metrics against the
    known fault schedule: alert recall and precision
    (:func:`~repro.obs.incidents.grade_against_plan`), mean MTTD
    (injection to first matching alert), max MTTA (detection to alert —
    bounded by one monitor beat) and mean MTTR from the incident
    bundles' fault correlation.
    """
    result = ExperimentResult(
        "resilience-monitoring",
        f"Alert quality vs the armed fault schedule on {num_devices} "
        f"devices ({EXPERIMENT_BACKEND} backend)",
    )
    horizon_ns = requests / 2e6 * 1e9
    for chaos, plan in _chaos_plans(horizon_ns).items():
        platform = make_cluster_platform(num_devices=num_devices,
                                         backend=EXPERIMENT_BACKEND)
        injector = platform.runtime.arm_faults(plan)
        engine = ServingEngine(
            platform,
            [_tenant("replicated", RETRY_POLICIES["retry3"], requests)],
            monitoring=True,
        )
        report = engine.run()
        tenant = report.tenant("scan")
        monitoring = engine.monitoring
        grade = grade_against_plan(injector, monitoring.monitor.alerts)
        mttr = [row["mttr_ns"]
                for bundle in monitoring.reporter.bundles
                for row in bundle.get("correlation", ())
                if row["mttr_ns"] is not None]
        result.add(
            chaos=chaos,
            served=tenant.served,
            slo_att=tenant.slo_attainment,
            alerts=grade["alerts"],
            incidents=len(monitoring.reporter.bundles),
            recall=grade["recall"],
            precision=grade["precision"],
            mean_mttd_ns=grade["mean_mttd_ns"],
            max_mtta_ns=grade["max_mtta_ns"],
            mean_mttr_ns=sum(mttr) / len(mttr) if mttr else 0.0,
        )
    result.headline = {
        "recall_min": min(result.column("recall")),
        "healthy_alerts": result.rows[0]["alerts"],
        "max_mtta_ns": max(result.column("max_mtta_ns")),
    }
    result.notes = (
        "recall 1.0 = every injected fault alerted; MTTA is bounded by "
        "one monitor beat past heartbeat detection; healthy rows must "
        "show zero alerts (precision stays 1.0 vacuously)"
    )
    return result


def run_resilience_hedged(requests: int = 40,
                          num_devices: int = 4) -> ExperimentResult:
    """Hedged replicated point lookups against stalled devices."""
    result = ExperimentResult(
        "resilience-hedged",
        f"Hedged kvstore lookups on {num_devices} devices under stalls",
    )
    stall = FaultPlan(events=(
        FaultEvent("device_stall", at_ns=500.0, device=0,
                   duration_ns=50_000.0),
        FaultEvent("device_stall", at_ns=500.0, device=1,
                   duration_ns=50_000.0),
    ))
    for hedge_delay in (0.0, 1_000.0, 4_000.0):
        platform = make_cluster_platform(num_devices=num_devices,
                                         backend=EXPERIMENT_BACKEND)
        platform.runtime.arm_faults(stall)
        spec = TenantSpec(
            "kv", "kvstore",
            arrivals=ArrivalSpec("poisson", rate_rps=1e6,
                                 requests=requests),
            qos_class="interactive", slo_ns=200_000.0, size=512,
            placement="replicated",
            retry=RetryPolicy(max_retries=2, backoff_ns=500.0),
            hedge_delay_ns=hedge_delay,
        )
        report = ServingEngine(platform, [spec]).run()
        tenant = report.tenant("kv")
        result.add(
            hedge_delay_ns=hedge_delay,
            served=tenant.served,
            hedged=tenant.hedged,
            hedged_won=tenant.hedged_won,
            p99_ns=tenant.p99_ns if tenant.served else 0.0,
            slo_att=tenant.slo_attainment,
            correct=tenant.correct,
        )
    result.headline = {
        "correct": all(result.column("correct")),
        "unhedged_hedges": result.rows[0]["hedged"],
        "hedged_won_max": max(result.column("hedged_won")),
    }
    result.notes = (
        "hedge_delay 0 disables hedging; a tight delay trades duplicate "
        "launches for tail latency while stalled devices drag primaries"
    )
    return result


if __name__ == "__main__":
    print(run_resilience().render())
    print()
    print(run_resilience_hedged().render())
    print()
    print(run_resilience_monitoring().render())
