"""The benchmark's three workloads, driven through ``repro``'s public API.

Every workload is closed loop: each simulated client thinks, sends one
transaction and waits for its reply before thinking again.  Clients are
coroutines inside one single-threaded simulation, never OS threads.

A workload is split into :meth:`Workload.setup` (testbed build, tenant
population and simulated warm-up, so caches fill before timing) and
:meth:`Workload.run` (the timed region: the migrations and the client
load around them).  Both are deterministic functions of the seed, so
running the pair twice gives identical simulated results.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Sequence, Tuple

from repro.api import (
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationReport,
    MigrationScheduler,
    RouterFleet,
    ScheduleOptions,
    SnapshotStrategy,
    TransferRates,
    policy_by_name,
)
from repro.cluster.cluster import Cluster
from repro.experiments.common import TenantSetup, Testbed, build_testbed
from repro.experiments.profiles import QUICK
from repro.sim.core import Environment, StopSimulation
from repro.sim.rand import StreamFactory
from repro.workload.simplekv import setup_kv_tenant

from stats import nearest_rank

STRATEGIES = (SnapshotStrategy.SERIAL, SnapshotStrategy.PIPELINED,
              SnapshotStrategy.WATERMARK)

#: Idle simulated time between two migrations (or two waves); it is
#: subtracted from the makespan, so only migration work counts there.
GAP_S = 2.0

#: How the engine words a first-updater-wins rejection: the client's
#: transaction is aborted by concurrency control, not by a fault.
CONFLICT_PREFIX = "first-updater-wins"


@dataclass
class SimResult:
    """What one timed region measured on the simulated clock."""

    #: Response time of every client transaction committed in the
    #: timed region, including time blocked by migrations.
    txn_latencies: List[float] = field(default_factory=list)
    #: Client transactions rejected by concurrency control
    #: (first-updater-wins); the client is told and moves on.
    txn_aborted: int = 0
    #: Client transactions that ended in an error (network, routing,
    #: park reject or timeout).
    txn_errored: int = 0
    region_s: float = 0.0
    #: Reports of the migrations that ran to an end.
    migrations: List[MigrationReport] = field(default_factory=list)
    #: Outcome of every migration attempted, one entry each, including
    #: scheduler jobs that ended without a report.
    outcomes: List[str] = field(default_factory=list)
    idle_gaps_s: float = 0.0
    #: ``router.downtime`` samples observed in the timed region.
    downtime: List[float] = field(default_factory=list)
    #: Failed correctness checks, as readable sentences.
    problems: List[str] = field(default_factory=list)
    #: Scheduler reports (fleet-evacuate only).
    schedules: List[Any] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        """First migration start to last migration end, idle gaps
        excluded."""
        first = min(report.started_at for report in self.migrations)
        last = max(report.ended_at for report in self.migrations)
        return last - first - self.idle_gaps_s


def pooled_metrics(results: Sequence[SimResult]) -> Dict[str, float]:
    """Simulated metrics over the pooled samples of several timed
    regions (one per repetition)."""
    latencies = [value for result in results
                 for value in result.txn_latencies]
    durations = [report.migration_time for result in results
                 for report in result.migrations]
    downtime = [value for result in results for value in result.downtime]
    counts = pooled_counts(results)
    metrics = {
        "txn_mean_s": sum(latencies) / len(latencies),
        "txn_p50_s": nearest_rank(latencies, 0.50),
        "txn_p99_s": nearest_rank(latencies, 0.99),
        "txn_per_s": len(latencies) / sum(result.region_s
                                          for result in results),
        "migration_s_p50": nearest_rank(durations, 0.50),
        "makespan_s": (sum(result.makespan_s for result in results)
                       / len(results)),
        "failed_frac": counts["failed"] / counts["attempted"],
    }
    if downtime:
        metrics["downtime_p50_s"] = nearest_rank(downtime, 0.50)
        metrics["downtime_p90_s"] = nearest_rank(downtime, 0.90)
    return metrics


def pooled_counts(results: Sequence[SimResult]) -> Dict[str, int]:
    """Sample counts, and the counts behind ``failed_frac``: client
    transactions plus migrations attempted, and those that aborted,
    errored or did not end ``ok``."""
    counts = {
        "txn_committed": sum(len(r.txn_latencies) for r in results),
        "txn_aborted": sum(r.txn_aborted for r in results),
        "txn_errored": sum(r.txn_errored for r in results),
        "migrations": sum(len(r.outcomes) for r in results),
        "migrations_not_ok": sum(1 for r in results
                                 for outcome in r.outcomes
                                 if outcome != "ok"),
        "downtime_samples": sum(len(r.downtime) for r in results),
    }
    counts["attempted"] = (counts["txn_committed"] + counts["txn_aborted"]
                           + counts["txn_errored"] + counts["migrations"])
    counts["failed"] = (counts["txn_aborted"] + counts["txn_errored"]
                        + counts["migrations_not_ok"])
    return counts


def run_to_completion(env: Environment, process: Any) -> None:
    """Run the simulation until ``process`` ends, not a step later."""
    def stop(_event: Any) -> None:
        raise StopSimulation

    process.add_callback(stop)
    env.run()


def check_migrations(result: SimResult, middleware: Middleware,
                     tenants: Sequence[str]) -> None:
    """Every migration ok and consistent; one owner per tenant."""
    for report in result.migrations:
        if report.outcome != "ok" or report.consistent is not True:
            result.problems.append(
                "migration of %s %s->%s: outcome %s, consistent %s"
                % (report.tenant, report.source, report.destination,
                   report.outcome, report.consistent))
    for tenant in tenants:
        owners = middleware.owners(tenant)
        if len(owners) != 1 or owners[0] != middleware.route(tenant):
            result.problems.append("tenant %s has owners %r, route %s"
                                   % (tenant, owners,
                                      middleware.route(tenant)))


def bounce(env: Environment, middleware: Middleware, tenant: str,
           migrations: Sequence[MigrationOptions],
           result: SimResult) -> None:
    """Migrate ``tenant`` node0 -> node1 -> node0 ..., one migration per
    options entry, ``GAP_S`` apart; returns when the last one ends."""
    def mover() -> Generator[Any, Any, None]:
        destination = "node1"
        for index, options in enumerate(migrations):
            if index:
                yield env.timeout(GAP_S)
            report = yield from middleware.migrate(tenant, destination,
                                                   options)
            result.migrations.append(report)
            result.outcomes.append(report.outcome)
            destination = "node0" if destination == "node1" else "node1"

    run_to_completion(env, env.process(mover(), name="bench.mover"))
    result.idle_gaps_s = GAP_S * (len(migrations) - 1)


def _window(series: Any, start: float, end: float) -> List[float]:
    """Values of a ``SampleSeries`` timestamped in ``[start, end]``."""
    low = bisect.bisect_left(series.times, start)
    high = bisect.bisect_right(series.times, end)
    return series.values[low:high]


class Workload:
    """One named workload: a seeded setup and a timed region."""

    name = ""
    #: Typical host seconds of one timed region on the reference
    #: machine; sets how many repetitions fill ``--seconds``.
    repetition_s = 5.0
    #: Tenants whose ownership is checked at the end.
    tenants: Sequence[str] = ()
    #: Fewest ``router.downtime`` samples a run must pool.
    min_downtime_samples = 0

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> SimResult:
        raise NotImplementedError


# ---------------------------------------------------------------------
# tpcw-ordering
# ---------------------------------------------------------------------

class TpcwOrdering(Workload):
    """One TPC-W tenant at the paper's heavy 700-EB point (ordering
    mix), bounced node0 <-> node1 by Madeus's default pipelined path."""

    name = "tpcw-ordering"
    tenants = ("T1",)
    paper_ebs = 700
    bounces = 3
    repetition_s = 2.5

    def setup(self, seed: int) -> Testbed:
        profile = replace(QUICK, seed=seed)
        testbed = build_testbed(profile, [
            TenantSetup("T1", "node0", paper_ebs=self.paper_ebs,
                        mix="ordering")])
        testbed.run(until=profile.duration(30.0))
        return testbed

    def run(self, testbed: Testbed) -> SimResult:
        env, middleware = testbed.env, testbed.middleware
        load = testbed.metrics["T1"]
        aborted_before = load.aborted_interactions
        result = SimResult()
        start = env.now
        bounce(env, middleware, "T1",
               [MigrationOptions(rates=testbed.profile.rates)]
               * self.bounces, result)
        result.region_s = env.now - start
        result.txn_latencies = _window(load.response_times, start,
                                       env.now)
        result.txn_aborted = load.aborted_interactions - aborted_before
        check_migrations(result, middleware, self.tenants)
        return result


# ---------------------------------------------------------------------
# kv-router
# ---------------------------------------------------------------------

@dataclass
class KvState:
    env: Environment
    middleware: Middleware
    clients: List[Any] = field(default_factory=list)
    #: Set once the timed region is over: clients finish their
    #: transaction in flight and stop.
    stopping: bool = False
    #: Increments acknowledged to the clients, per key.
    increments: Dict[int, int] = field(default_factory=dict)
    #: (finish time, latency) of committed transactions.
    committed: List[Tuple[float, float]] = field(default_factory=list)
    #: (finish time, error text) of the other transactions.
    unsuccessful: List[Tuple[float, str]] = field(default_factory=list)


class KvRouter(Workload):
    """A small kv tenant driven through a 2-shard router fleet while it
    bounces node0 <-> node1, rotating serial -> pipelined -> watermark."""

    name = "kv-router"
    tenants = ("A",)
    keys = 24
    clients = 4
    think_s = 0.2
    read_only_ratio = 0.4
    writes_per_txn = 2
    #: Mean CPU service time of one kv statement.  Drawn per statement,
    #: so response times are continuous rather than a few fixed values.
    statement_cpu_s = 0.0008
    tenant_mb = 8.0
    chunk_mb = 2.0
    rates = TransferRates(dump_mb_s=5.0, restore_mb_s=2.0)
    bounces_per_strategy = 10
    warmup_s = 5.0
    repetition_s = 1.4
    min_downtime_samples = 100

    def setup(self, seed: int) -> KvState:
        env = Environment()
        cluster = Cluster(env)
        for node in ("node0", "node1"):
            cluster.add_node(node)
        middleware = Middleware(env, cluster, MiddlewareConfig(
            policy=policy_by_name("Madeus"), verify_consistency=True,
            drop_source_copy=True))
        fleet = RouterFleet(env, middleware, shards=2, seed=seed)

        def populate() -> Generator[Any, Any, None]:
            instance = cluster.node("node0").instance
            yield from setup_kv_tenant(instance, "A", self.keys)
            instance.tenant("A").fixed_overhead_mb = self.tenant_mb
            middleware.register_tenant("A", "node0")

        run_to_completion(env, env.process(populate(),
                                           name="bench.kv.setup"))
        state = KvState(env, middleware)
        streams = StreamFactory(seed)

        def client(index: int) -> Generator[Any, Any, None]:
            rng = streams.stream("bench-kv-%d" % index)
            conn = fleet.connect("A")
            while True:
                yield env.timeout(rng.exponential(self.think_s))
                if state.stopping:
                    return
                read_only = rng.random() < self.read_only_ratio
                keys = sorted({rng.randint(0, self.keys - 1)
                               for _ in range(self.writes_per_txn)})
                # never a blind write: every updated key is read first
                statements = ["BEGIN"]
                statements += ["SELECT v FROM kv WHERE k = %d" % key
                               for key in keys]
                if not read_only:
                    statements += ["UPDATE kv SET v = v + 1 WHERE k = %d"
                                   % key for key in keys]
                statements.append("COMMIT")
                started = env.now
                for sql in statements:
                    reply = yield from fleet.submit(
                        conn, sql,
                        cpu_cost=rng.exponential(self.statement_cpu_s))
                    if not reply.ok:
                        break
                if not reply.ok:
                    state.unsuccessful.append((env.now, reply.error))
                    continue
                state.committed.append((env.now, env.now - started))
                if not read_only:
                    for key in keys:
                        state.increments[key] = (
                            state.increments.get(key, 0) + 1)

        state.clients = [env.process(client(index),
                                     name="bench.kv.%d" % index)
                         for index in range(self.clients)]
        env.run(until=env.now + self.warmup_s)
        return state

    def run(self, state: KvState) -> SimResult:
        env, middleware = state.env, state.middleware
        result = SimResult()
        region_start = env.now
        histogram = middleware.metrics.quantile_histogram("router.downtime")
        blocked_before = len(histogram.samples)
        bounce(env, middleware, "A", [
            MigrationOptions(rates=self.rates, chunk_mb=self.chunk_mb,
                             strategy=strategy)
            for _ in range(self.bounces_per_strategy)
            for strategy in STRATEGIES], result)
        region_end = env.now
        result.region_s = region_end - region_start
        result.downtime = list(histogram.samples[blocked_before:])
        result.txn_latencies = [
            latency for finished, latency in state.committed
            if region_start <= finished <= region_end]
        for finished, error in state.unsuccessful:
            if region_start <= finished <= region_end:
                if error.startswith(CONFLICT_PREFIX):
                    result.txn_aborted += 1
                else:
                    result.txn_errored += 1
        # Let every client finish its transaction in flight, so the
        # acknowledged-increment ledger is exact.
        state.stopping = True
        run_to_completion(env, env.all_of(state.clients))
        check_migrations(result, middleware, self.tenants)
        owner = middleware.owners("A")[0]
        table = middleware.cluster.node(owner).instance.tenant(
            "A").table("kv")
        lost = phantom = 0
        for key in range(self.keys):
            got = table.chain(key).latest()["v"]
            expected = state.increments.get(key, 0)
            lost += max(0, expected - got)
            phantom += max(0, got - expected)
        if lost or phantom:
            result.problems.append(
                "kv ledger: %d lost and %d phantom increments"
                % (lost, phantom))
        return result


# ---------------------------------------------------------------------
# fleet-evacuate
# ---------------------------------------------------------------------

class FleetEvacuate(Workload):
    """Eight TPC-W tenants of 0.25-1.0x ``base_mb`` under light
    browsing load, evacuated concurrently by the fifo scheduler in
    waves of alternating direction, one wave per snapshot strategy."""

    name = "fleet-evacuate"
    tenants = tuple("T%d" % index for index in range(8))
    paper_ebs = 30
    repetition_s = 5.0

    def setup(self, seed: int) -> Testbed:
        profile = replace(QUICK, seed=seed)
        testbed = build_testbed(profile, [
            TenantSetup(name, "node0", paper_ebs=self.paper_ebs,
                        mix="browsing") for name in self.tenants])
        # A fleet that moves tenants retires the source copy.
        testbed.middleware.config.drop_source_copy = True
        step = 0.75 / (len(self.tenants) - 1)
        for index, name in enumerate(self.tenants):
            tenant = testbed.node("node0").instance.tenant(name)
            scale = (profile.rates.base_mb * (1.0 - step * index)
                     / tenant.size_mb())
            tenant.fixed_overhead_mb *= scale
            tenant.size_multiplier *= scale
        testbed.run(until=profile.duration(30.0))
        return testbed

    def run(self, testbed: Testbed) -> SimResult:
        env, middleware = testbed.env, testbed.middleware
        result = SimResult()
        loads = [testbed.metrics[name] for name in self.tenants]
        aborted_before = sum(load.aborted_interactions for load in loads)
        start = env.now

        def waves() -> Generator[Any, Any, None]:
            destination = "node1"
            for index, strategy in enumerate(STRATEGIES):
                if index:
                    yield env.timeout(GAP_S)
                scheduler = MigrationScheduler(middleware, ScheduleOptions(
                    policy="fifo", strategy=strategy,
                    migration=MigrationOptions(
                        rates=testbed.profile.rates)))
                for name in self.tenants:
                    scheduler.submit(name, destination)
                schedule = yield from scheduler.run()
                result.schedules.append(schedule)
                for job in schedule.jobs:
                    result.outcomes.append(job.outcome)
                    if job.report is None:
                        result.problems.append(
                            "job %s: %s (%s)" % (job.tenant, job.outcome,
                                                 job.error))
                    else:
                        result.migrations.append(job.report)
                destination = "node0" if destination == "node1" \
                    else "node1"

        run_to_completion(env, env.process(waves(), name="bench.waves"))
        result.region_s = env.now - start
        result.idle_gaps_s = GAP_S * (len(STRATEGIES) - 1)
        for load in loads:
            result.txn_latencies += _window(load.response_times, start,
                                            env.now)
        result.txn_aborted = (sum(load.aborted_interactions
                                  for load in loads) - aborted_before)
        check_migrations(result, middleware, self.tenants)
        return result


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (TpcwOrdering(), KvRouter(), FleetEvacuate())}
