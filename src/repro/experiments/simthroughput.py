"""``repro bench --scenario simthroughput``: substrate speed, measured.

Unlike every other experiment in this repo, this scenario reports *real*
wall-clock numbers: how many kernel events (or parses, MVCC reads,
statements) the simulation substrate processes per second of host CPU.
The artifact (``BENCH_simthroughput.json``) is what CI's perf gate
compares between the PR and its base commit — always the *ratio* of the
two runs on the same runner, never absolute timings, per ROADMAP.md's
tolerance policy.

Five cases, spanning the layers the paper-scale runs exercise:

``kernel_ping_pong``
    Two processes alternating ``yield env.timeout(1)`` — the raw event
    dispatch + timeout scheduling rate of :mod:`repro.sim.core`.
``parser_replay``
    A TPC-W-shaped battery of ~30 distinct statements parsed over and
    over (cold first pass, then the LRU steady state a replay sees).
``mvcc_read``
    Version-chain reads, alternating the read-latest fast path with a
    mid-chain snapshot probe (the binary-search path).
``engine_point_select``
    Full statement execution: a pre-parsed point ``SELECT`` through
    :class:`~repro.engine.Session` against a 100-row table.
``migration_e2e``
    One complete seeded single-tenant migration at the scenario's
    profile; throughput is the run's kernel events per wall second.

``--paper-smoke`` additionally drives one *paper*-profile migration and
records whether it finished within the CI budget
(:data:`PAPER_SMOKE_BUDGET_S` real seconds) — the proof that paper-scale
runs are practical on CI hardware.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.middleware import MigrationOptions
from ..engine import DbmsInstance, Session
from ..engine.dump import restore_duration
from ..engine.mvcc import VersionChain
from ..engine.sqlmini import parse
from ..sim.core import Environment
from .common import TenantSetup, build_testbed
from .profiles import PAPER, Profile

#: Real-time budget for the ``--paper-smoke`` migration, in seconds.
#: The CI job's ``timeout-minutes`` sits above this, so an overrun
#: fails the gate with a diagnosis instead of a hard job kill.
PAPER_SMOKE_BUDGET_S = 300.0

#: Workload (paper EBs) driven while the timed migrations run.
SMOKE_PAPER_EBS = 100

#: Timed rounds per microbench case; the median damps runner noise.
ROUNDS = 3

#: Per-profile iteration counts: large enough that each timed round is
#: well above timer resolution, small enough that the whole scenario
#: stays in CI's budget at the ``quick`` profile.
_PINGPONG_YIELDS = {"paper": 100_000, "quick": 25_000, "smoke": 2_000}
_PARSER_PASSES = {"paper": 1_000, "quick": 300, "smoke": 30}
_MVCC_READS = {"paper": 200_000, "quick": 50_000, "smoke": 5_000}
_POINT_SELECTS = {"paper": 2_000, "quick": 500, "smoke": 50}

#: The parser battery: the statement shapes a TPC-W replay issues, with
#: enough literal variety to exercise the LRU honestly.
_PARSER_BATTERY = tuple(
    [
        "SELECT i_id, i_title, i_srp FROM item WHERE i_subject = "
        "'subject%d' ORDER BY i_title LIMIT 50" % index
        for index in range(8)
    ] + [
        "SELECT c_fname, c_lname FROM customer WHERE c_id = %d" % index
        for index in range(8)
    ] + [
        "UPDATE item SET i_stock = %d WHERE i_id = %d"
        % (index * 3, index) for index in range(6)
    ] + [
        "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) "
        "VALUES (%d, %d, %d, 1)" % (index, index, index)
        for index in range(6)
    ] + [
        "BEGIN",
        "COMMIT",
    ])


@dataclass
class ThroughputCase:
    """One measured substrate rate (a row of ``BENCH_simthroughput``)."""

    case: str
    metric: str
    operations: int
    wall_seconds: float
    throughput: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "metric": self.metric,
            "operations": self.operations,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "detail": self.detail,
        }


@dataclass
class SimThroughputResult:
    """The scenario's cases plus the optional paper-smoke record."""

    scenario: str
    profile: str
    seed: int
    cases: List[ThroughputCase] = field(default_factory=list)
    paper_smoke: Optional[Dict[str, Any]] = None
    path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.scenario,
            "profile": self.profile,
            "seed": self.seed,
            "cases": [case.to_dict() for case in self.cases],
            "paper_smoke": self.paper_smoke,
        }

    @property
    def paper_smoke_ok(self) -> bool:
        """True unless a paper-smoke run exceeded its budget."""
        if self.paper_smoke is None:
            return True
        return bool(self.paper_smoke.get("within_budget"))


def _median_rate(operations: int, seconds: List[float]) -> ThroughputCase:
    seconds = sorted(seconds)
    wall = seconds[len(seconds) // 2]
    return operations, wall, operations / wall


# ----------------------------------------------------------------------
# the microbench cases
# ----------------------------------------------------------------------
def _bench_kernel_ping_pong(iterations: int) -> ThroughputCase:
    """Events/sec of two processes trading 1-unit timeouts."""
    walls = []
    events = 0
    for _round in range(ROUNDS):
        env = Environment()

        def ping(env):
            for _i in range(iterations):
                yield env.timeout(1)

        env.process(ping(env))
        env.process(ping(env))
        start = time.perf_counter()
        env.run()
        walls.append(time.perf_counter() - start)
        events = env.events_processed
    operations, wall, rate = _median_rate(events, walls)
    return ThroughputCase(
        case="kernel_ping_pong", metric="events_per_second",
        operations=operations, wall_seconds=wall, throughput=rate,
        detail={"processes": 2, "yields_per_process": iterations,
                "rounds": ROUNDS})


def _bench_parser_replay(passes: int) -> ThroughputCase:
    """Statements parsed/sec over the TPC-W battery (LRU included)."""
    parse.cache_clear()
    battery = _PARSER_BATTERY
    walls = []
    for _round in range(ROUNDS):
        start = time.perf_counter()
        for _pass in range(passes):
            for sql in battery:
                parse(sql)
        walls.append(time.perf_counter() - start)
    operations, wall, rate = _median_rate(passes * len(battery), walls)
    return ThroughputCase(
        case="parser_replay", metric="statements_per_second",
        operations=operations, wall_seconds=wall, throughput=rate,
        detail={"distinct_statements": len(battery), "passes": passes,
                "rounds": ROUNDS, "cold_first_pass": True})


def _bench_mvcc_read(reads: int) -> ThroughputCase:
    """Version-chain reads/sec: latest fast path + mid-chain probe."""
    chain = VersionChain()
    for csn in range(1, 201):
        chain.install(csn, {"v": csn})
    read = chain.read
    walls = []
    for _round in range(ROUNDS):
        start = time.perf_counter()
        for _i in range(reads // 2):
            read(100)   # mid-chain: binary search
            read(500)   # at/after newest: the read-latest fast path
        walls.append(time.perf_counter() - start)
    operations, wall, rate = _median_rate(2 * (reads // 2), walls)
    return ThroughputCase(
        case="mvcc_read", metric="reads_per_second",
        operations=operations, wall_seconds=wall, throughput=rate,
        detail={"chain_versions": 200, "rounds": ROUNDS,
                "mix": "50% read-latest, 50% mid-chain snapshot"})


def _bench_engine_point_select(selects: int) -> ThroughputCase:
    """Full point-SELECT executions/sec through a Session."""
    env = Environment()
    instance = DbmsInstance(env, "bench0")
    instance.create_tenant("T")
    session = Session(instance, "T")

    def setup(env):
        yield from session.execute(
            "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        yield from session.execute("BEGIN")
        for key in range(100):
            yield from session.execute(
                "INSERT INTO kv (k, v) VALUES (%d, %d)" % (key, key))
        yield from session.execute("COMMIT")

    env.process(setup(env))
    env.run()
    statement = parse("SELECT v FROM kv WHERE k = 42")
    walls = []
    for _round in range(ROUNDS):
        def select_loop(env):
            for _i in range(selects):
                yield from session.execute(statement, cpu_cost=0.0)

        env.process(select_loop(env))
        start = time.perf_counter()
        env.run()  # a failed select crashes the run (nobody waits on it)
        walls.append(time.perf_counter() - start)
    operations, wall, rate = _median_rate(selects, walls)
    return ThroughputCase(
        case="engine_point_select", metric="selects_per_second",
        operations=operations, wall_seconds=wall, throughput=rate,
        detail={"table_rows": 100, "rounds": ROUNDS})


def _timed_migration(profile: Profile) -> Dict[str, Any]:
    """One seeded single-tenant migration, timed on the host clock."""
    testbed = build_testbed(
        profile, [TenantSetup("A", "node0", paper_ebs=SMOKE_PAPER_EBS)])
    tenant = testbed.node("node0").instance.tenant("A")
    size_mb = tenant.size_mb()
    warmup = max(2.0, profile.duration(30.0))
    transfer = (size_mb / profile.rates.dump_mb_s
                + restore_duration(size_mb, profile.rates))
    cap = (warmup + profile.catchup_deadline + profile.duration(60.0)
           + 3.0 * transfer)
    start = time.perf_counter()
    testbed.run(until=warmup)
    runner = testbed.migrate_async("A", "node1",
                                   options=MigrationOptions())
    env = testbed.env
    env.run(until=env.any_of([runner, env.timeout(cap - env.now)]))
    wall = time.perf_counter() - start
    outcome = runner.value if runner.processed else {}
    report = outcome.get("report")
    if report is None:
        raise RuntimeError(
            "simthroughput migration did not complete at profile %s: %s"
            % (profile.name, outcome.get("timeout")))
    events = testbed.env.events_processed
    return {
        "profile": profile.name,
        "wall_seconds": wall,
        "events_processed": events,
        "events_per_second": events / wall if wall > 0 else 0.0,
        "sim_seconds": testbed.env.now,
        "migration_time": report.migration_time,
        "consistent": report.consistent,
    }


def _bench_migration_e2e(profile: Profile) -> ThroughputCase:
    outcome = _timed_migration(profile)
    return ThroughputCase(
        case="migration_e2e", metric="events_per_second",
        operations=outcome["events_processed"],
        wall_seconds=outcome["wall_seconds"],
        throughput=outcome["events_per_second"],
        detail={"sim_seconds": outcome["sim_seconds"],
                "migration_time": outcome["migration_time"],
                "consistent": outcome["consistent"]})


# ----------------------------------------------------------------------
# scenario entry point
# ----------------------------------------------------------------------
def run_scenario(profile: Profile,
                 paper_smoke: bool = False) -> SimThroughputResult:
    """Measure all five substrate rates (and optionally paper smoke)."""
    result = SimThroughputResult(scenario="simthroughput",
                                 profile=profile.name,
                                 seed=profile.seed)
    scale = profile.name if profile.name in _PINGPONG_YIELDS else "quick"
    result.cases.append(
        _bench_kernel_ping_pong(_PINGPONG_YIELDS[scale]))
    result.cases.append(_bench_parser_replay(_PARSER_PASSES[scale]))
    result.cases.append(_bench_mvcc_read(_MVCC_READS[scale]))
    result.cases.append(
        _bench_engine_point_select(_POINT_SELECTS[scale]))
    result.cases.append(_bench_migration_e2e(profile))
    if paper_smoke:
        outcome = _timed_migration(PAPER)
        outcome["budget_seconds"] = PAPER_SMOKE_BUDGET_S
        outcome["within_budget"] = (
            outcome["wall_seconds"] <= PAPER_SMOKE_BUDGET_S)
        result.paper_smoke = outcome
    return result


def render(result: SimThroughputResult) -> List[str]:
    """Human-readable lines for the bench report."""
    lines = ["sim throughput (profile=%s, real wall-clock rates):"
             % result.profile]
    for case in result.cases:
        lines.append(
            "  %-20s %12.0f %s  (%d ops in %.3f s)"
            % (case.case, case.throughput, case.metric.replace("_", " "),
               case.operations, case.wall_seconds))
    if result.paper_smoke is not None:
        smoke = result.paper_smoke
        lines.append(
            "  paper-smoke migration: %.1f s wall (budget %.0f s) -> %s"
            % (smoke["wall_seconds"], smoke["budget_seconds"],
               "OK" if smoke["within_budget"] else "OVER BUDGET"))
    return lines
