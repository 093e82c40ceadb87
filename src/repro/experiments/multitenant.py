"""Figures 10-19 and Section 5.6: the multi-tenant hot-spot experiment.

Node 0 hosts three tenants: B with a heavy workload (700 EBs) and A and
C with light workloads (200 EBs each); node 1 is empty.  Node 0 is the
hot spot.  Two cases:

* **Case 1** (Figures 10-13): migrate the *heavy* tenant B.  Migration
  takes ~100 s; tenant A's response time drops after migration; tenant
  B's response time and throughput improve on the fresh node (and the
  slave is warm, so the post-switch dip is small).
* **Case 2** (Figures 14-19): migrate a *light* tenant C.  Migration
  takes longer (~130 s); A and B stay slow (the hot spot remains: 900
  EBs still hit node 0); only C improves.

The paper's answer to "which tenant should be migrated?" is the heavy
one — shorter migration *and* it removes the hot spot.  The report
derives the same answer from the measured windows.

Beyond the paper, a third section evacuates *both* light tenants at
once under the :class:`~repro.core.scheduler.MigrationScheduler` and
compares the wall clock against doing them one at a time — the
multi-tenant generalisation the scheduler exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.middleware import MigrationOptions, MigrationReport
from ..core.scheduler import ScheduleOptions, ScheduleReport
from ..metrics.report import format_table, sparkline
from .common import Report, TenantSetup, build_testbed, seeded
from .profiles import Profile, get_profile

#: Paper timings: migration order at ~500 s; B takes ~100 s, C ~130 s.
PAPER_MIGRATION_ORDER_AT = 500.0
PAPER_CASE1_DURATION = 100.0
PAPER_CASE2_DURATION = 130.0

HEAVY_EBS = 700
LIGHT_EBS = 200


@dataclass
class TenantWindowStats:
    """Mean RT/throughput before, during, and after the migration."""

    tenant: str
    rt_before: float
    rt_during: float
    rt_after: float
    tput_before: float
    tput_during: float
    tput_after: float
    rt_series: List[Tuple[float, float]] = field(default_factory=list)
    tput_series: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class CaseResult:
    """One case: which tenant migrated, its report, per-tenant stats."""

    case: str
    migrated: str
    report: Optional[MigrationReport]
    migration_start: float
    migration_end: float
    tenants: Dict[str, TenantWindowStats] = field(default_factory=dict)

    @property
    def migration_time(self) -> Optional[float]:
        """End-to-end migration duration."""
        if self.report is None:
            return None
        return self.report.migration_time


def run_case(migrate_tenant: str,
             profile: Optional[Profile] = None,
             trace_dir: Optional[str] = None) -> CaseResult:
    """Run one multi-tenant case (migrate ``migrate_tenant``)."""
    profile = profile or get_profile()
    testbed = build_testbed(
        profile,
        [TenantSetup("A", "node0", paper_ebs=LIGHT_EBS),
         TenantSetup("B", "node0", paper_ebs=HEAVY_EBS),
         TenantSetup("C", "node0", paper_ebs=LIGHT_EBS)],
        checkpoints=True, trace_dir=trace_dir)
    order_at = max(3.0, profile.duration(PAPER_MIGRATION_ORDER_AT) * 0.3)
    testbed.run(until=order_at)
    # Paper-faithful case timings: serial dump -> ship -> restore.
    runner = testbed.migrate_async(
        migrate_tenant, "node1", options=MigrationOptions(strategy="serial"))
    env = testbed.env
    cap = order_at + profile.catchup_deadline + profile.duration(600.0)
    env.run(until=env.any_of([runner, env.timeout(cap - env.now)]))
    report = runner.value.get("report") if runner.processed else None
    end = report.ended_at if report is not None else env.now
    tail = profile.duration(200.0)
    final = end + tail
    testbed.run(until=final)
    bucket = max(0.5, profile.duration(10.0))
    case = CaseResult(
        case="heavy" if migrate_tenant == "B" else "light",
        migrated=migrate_tenant, report=report,
        migration_start=order_at, migration_end=end)
    warm = order_at * 0.3
    for tenant in ("A", "B", "C"):
        metrics = testbed.metrics[tenant]
        case.tenants[tenant] = TenantWindowStats(
            tenant=tenant,
            rt_before=metrics.response_times.mean(warm, order_at),
            rt_during=metrics.response_times.mean(order_at, end),
            rt_after=metrics.response_times.mean(end, final),
            tput_before=metrics.completions.rate(warm, order_at),
            tput_during=metrics.completions.rate(order_at, end),
            tput_after=metrics.completions.rate(end, final),
            rt_series=metrics.response_times.bucketed_mean(bucket, 0.0,
                                                           final),
            tput_series=metrics.completions.bucketed_rate(bucket, 0.0,
                                                          final))
    return case


@dataclass
class ParallelResult:
    """Evacuating both light tenants: scheduler vs. one-at-a-time."""

    serialized_wall_clock: float
    schedule: ScheduleReport

    @property
    def concurrent_wall_clock(self) -> float:
        return self.schedule.wall_clock

    @property
    def improvement(self) -> float:
        if self.serialized_wall_clock <= 0.0:
            return 0.0
        return 1.0 - (self.concurrent_wall_clock
                      / self.serialized_wall_clock)


def _evacuation_testbed(profile: Profile,
                        trace_dir: Optional[str]) -> Tuple[object, float]:
    """A fresh hot-spot testbed warmed to the migration-order time."""
    testbed = build_testbed(
        profile,
        [TenantSetup("A", "node0", paper_ebs=LIGHT_EBS),
         TenantSetup("B", "node0", paper_ebs=HEAVY_EBS),
         TenantSetup("C", "node0", paper_ebs=LIGHT_EBS)],
        checkpoints=True, trace_dir=trace_dir)
    order_at = max(3.0, profile.duration(PAPER_MIGRATION_ORDER_AT) * 0.3)
    testbed.run(until=order_at)
    return testbed, order_at


def run_parallel_evacuation(profile: Optional[Profile] = None,
                            trace_dir: Optional[str] = None
                            ) -> ParallelResult:
    """Evacuate light tenants A and C to node 1, both ways.

    The serialized baseline migrates them one after the other (two
    plain :meth:`~repro.core.middleware.Middleware.migrate` calls); the
    concurrent run submits both to a FIFO
    :class:`~repro.core.scheduler.MigrationScheduler` so their snapshot
    streams share node 0's egress link.  Case 1/Case 2 runs above are
    untouched — this uses fresh testbeds.
    """
    profile = profile or get_profile()
    cap_extra = profile.catchup_deadline + profile.duration(600.0)
    testbed, order_at = _evacuation_testbed(profile, trace_dir)
    env = testbed.env
    serial_start = env.now
    budget = env.timeout(cap_extra)
    for tenant in ("A", "C"):
        env.run(until=env.any_of([testbed.migrate_async(tenant, "node1"),
                                  budget]))
    serialized_wall = env.now - serial_start
    testbed, order_at = _evacuation_testbed(profile, trace_dir)
    env = testbed.env
    runner = testbed.schedule_async([("A", "node1"), ("C", "node1")],
                                    ScheduleOptions(policy="fifo"))
    env.run(until=env.any_of([runner, env.timeout(cap_extra)]))
    return ParallelResult(serialized_wall_clock=serialized_wall,
                          schedule=runner.value["report"])


def report_parallel(result: ParallelResult) -> str:
    """Render the scheduler section of the multitenant report."""
    lines = ["Parallel evacuation of light tenants A + C (scheduler, "
             "fifo):",
             "  serialized %.1f s -> concurrent %.1f s (%.0f%% faster, "
             "max in flight %d)"
             % (result.serialized_wall_clock,
                result.concurrent_wall_clock,
                result.improvement * 100.0,
                result.schedule.max_in_flight)]
    for job in result.schedule.jobs:
        lines.append("  tenant %s: %s in %.1f s (queue wait %.1f s)"
                     % (job.tenant, job.outcome, job.duration,
                        job.queue_wait))
    return "\n".join(lines)


def run(profile: Optional[Profile] = None, *,
        seed: Optional[int] = None,
        trace_dir: Optional[str] = None) -> Report:
    """Uniform entry point: both cases plus the Section 5.6 answer."""
    profile = seeded(profile or get_profile(), seed)
    case1 = run_case("B", profile, trace_dir=trace_dir)
    case2 = run_case("C", profile, trace_dir=trace_dir)
    answer, reasons = which_migration_is_better(case1, case2)
    parallel = run_parallel_evacuation(profile, trace_dir=trace_dir)
    lines = [report_case(case1, profile, "Figures 10-13 (Case 1)"), "",
             report_case(case2, profile, "Figures 14-19 (Case 2)"), "",
             "Section 5.6 - which tenant should be migrated? -> the "
             "%s one" % answer]
    lines.extend("  - %s" % reason for reason in reasons)
    lines.extend(["", report_parallel(parallel)])
    return Report(experiment="multitenant", profile=profile.name,
                  seed=profile.seed, text="\n".join(lines),
                  data={"case1": case1, "case2": case2,
                        "answer": answer, "parallel": parallel})


def report_case(case: CaseResult, profile: Profile,
                figures: str) -> str:
    """One case's per-tenant window table plus timeline shapes."""
    rows = []
    for tenant, stats in sorted(case.tenants.items()):
        rows.append([tenant, stats.rt_before * 1000.0,
                     stats.rt_during * 1000.0, stats.rt_after * 1000.0,
                     stats.tput_before, stats.tput_during,
                     stats.tput_after])
    duration = case.migration_time
    lines = [format_table(
        ["tenant", "RT before [ms]", "RT during [ms]", "RT after [ms]",
         "tput before", "tput during", "tput after"],
        rows,
        title=("%s - migrate %s tenant %s (profile=%s): migration "
               "window [%.1f, %.1f] s, duration %s"
               % (figures, case.case, case.migrated, profile.name,
                  case.migration_start, case.migration_end,
                  "%.1f s" % duration if duration else "N/A")))]
    for tenant, stats in sorted(case.tenants.items()):
        lines.append("tenant %s RT   |%s|" % (tenant,
                                              sparkline(stats.rt_series)))
        lines.append("tenant %s tput |%s|" % (tenant,
                                              sparkline(stats.tput_series)))
    return "\n".join(lines)


def which_migration_is_better(case1: CaseResult,
                              case2: CaseResult) -> Tuple[str, List[str]]:
    """Section 5.6's question, answered from the measurements.

    Returns ("heavy" or "light", reasons).  The paper's answer is
    "heavy", for two reasons: the hot-spot tenant's response time only
    improves when the heavy tenant leaves, and the heavy migration is
    *shorter* (warm-cache + group-commit effects).
    """
    reasons: List[str] = []
    a1 = case1.tenants["A"]
    a2 = case2.tenants["A"]
    hot_spot_resolved_1 = a1.rt_after < a1.rt_before * 0.8
    hot_spot_resolved_2 = a2.rt_after < a2.rt_before * 0.8
    if hot_spot_resolved_1 and not hot_spot_resolved_2:
        reasons.append(
            "migrating the heavy tenant cut the light tenant A's "
            "response time (%.0f -> %.0f ms); migrating the light "
            "tenant did not (%.0f -> %.0f ms)"
            % (a1.rt_before * 1000, a1.rt_after * 1000,
               a2.rt_before * 1000, a2.rt_after * 1000))
    time1 = case1.migration_time or float("inf")
    time2 = case2.migration_time or float("inf")
    if time1 < time2:
        reasons.append(
            "the heavy migration was shorter (%.1f s vs %.1f s): the "
            "slave warms up faster and commits group better under "
            "heavy workload" % (time1, time2))
    answer = "heavy" if (hot_spot_resolved_1 or time1 < time2) else "light"
    return answer, reasons


def main() -> None:
    """Run both cases at the default profile and print everything."""
    profile = get_profile()
    case1 = run_case("B", profile)
    print(report_case(case1, profile, "Figures 10-13 (Case 1)"))
    print()
    case2 = run_case("C", profile)
    print(report_case(case2, profile, "Figures 14-19 (Case 2)"))
    print()
    answer, reasons = which_migration_is_better(case1, case2)
    print("Section 5.6 - which tenant should be migrated? -> the %s one"
          % answer)
    for reason in reasons:
        print("  - %s" % reason)
    print()
    print(report_parallel(run_parallel_evacuation(profile)))


if __name__ == "__main__":
    main()
