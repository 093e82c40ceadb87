"""Seeded runs must be bit-for-bit reproducible.

The kernel merges three internally-sorted queues (tick deque, lane
deque, overflow heap) by a globally unique sequence key, so the merge
reproduces the single-heap total order exactly.  These tests pin that
property end to end: a fixed seed yields an identical exported trace,
an identical migration report, and byte-identical paper-figure text.
"""

import dataclasses
import json

import pytest

from repro.core import MigrationOptions
from repro.errors import SourceCrashed
from repro.experiments import get_profile
from repro.experiments import migration_time, preliminary
from repro.experiments.common import TenantSetup, build_testbed
from repro.sim import Environment, Interrupt

from test_fault_tolerance import RATES, build, seed_tenant

SMOKE = get_profile("smoke")


def _migrate_once(trace_dir):
    """One seeded smoke migration; returns (report, trace records)."""
    testbed = build_testbed(SMOKE, [TenantSetup("A", "node0",
                                                paper_ebs=20)],
                            trace_dir=str(trace_dir))
    runner = testbed.migrate_async("A", "node1")
    testbed.run(until=runner)
    outcome = runner.value
    assert "report" in outcome, "seeded smoke migration must finish"
    with open(outcome["trace_path"]) as handle:
        records = handle.read()
    return outcome["report"], records


class TestSeededMigrationDeterminism:
    def test_trace_and_report_identical_across_runs(self, tmp_path):
        report_a, trace_a = _migrate_once(tmp_path / "a")
        report_b, trace_b = _migrate_once(tmp_path / "b")
        # Every field of the report — timings, counters, consistency —
        # must match exactly, not approximately.
        assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)
        assert trace_a == trace_b

    def test_trace_timestamps_are_simulated(self, tmp_path):
        """The trace clock is sim time, so bytes can't drift with load."""
        _report, trace = _migrate_once(tmp_path / "t")
        meta = json.loads(trace.splitlines()[0])
        assert meta["type"] == "meta"
        assert meta["clock"] == "sim"
        assert meta["seed"] == SMOKE.seed


class TestPaperFigureByteStability:
    def test_fig5_report_text_identical_across_runs(self):
        first = preliminary.run(SMOKE)
        second = preliminary.run(SMOKE)
        assert first.text == second.text
        assert first.data == second.data

    def test_fig6_report_text_identical_across_runs(self):
        first = migration_time.run(SMOKE)
        second = migration_time.run(SMOKE)
        assert first.text == second.text
        assert first.data == second.data

    def test_seed_changes_the_run(self):
        """Sanity check: determinism comes from the seed, not from the
        numbers being insensitive to it."""
        report_a, _ = _run_seeded(7)
        report_b, _ = _run_seeded(8)
        assert report_a.ended_at != report_b.ended_at


def _run_seeded(seed):
    from repro.experiments.common import seeded
    profile = seeded(SMOKE, seed)
    testbed = build_testbed(profile, [TenantSetup("A", "node0",
                                                  paper_ebs=20)])
    runner = testbed.migrate_async("A", "node1")
    testbed.run(until=runner)
    return runner.value["report"], testbed


# ---------------------------------------------------------------------
# Snapshot-path pins: exact values for runs no BENCH_*.json exercises
# (standbys, ship retries, journalled resume).  Recorded once; any
# change to how the three snapshot strategies schedule their work
# shows up here as a changed float, count or chunk log.
# ---------------------------------------------------------------------

STRATEGIES = ("serial", "pipelined", "watermark")

#: (started_at, snapshot_at, restored_at, caught_up_at, switched_at,
#: ended_at), chunks, chunks_skipped, ship_retries, journal chunk_log.
STANDBY_PINS = {
    "serial": (
        (0.25, 2.2546720000000002, 8.11650576, 8.186552426666637,
         8.251779093333274, 8.251779093333274),
        0, 0, 6, {}),
    "pipelined": (
        (0.25, 4.479925978181819, 8.55220961454546, 8.622256281212096,
         8.687482947878733, 8.687482947878733),
        11, 0, 10, {"node1": list(range(11)), "node2": list(range(11))}),
    "watermark": (
        (0.25, 10.746554204444452, 10.746554204444452,
         10.746554204444452, 10.748554204444453, 10.748554204444453),
        16, 0, 5, {"node1": list(range(16)), "node2": list(range(16))}),
}

RESUME_PINS = {
    # The serial path notices a source crash only once its restores
    # land, so the whole plan is already installed and skipped.
    "serial": (
        (7.357036897836751, 7.357036897836751, 7.357036897836751,
         7.952370231170185, 7.987790231170191, 7.987790231170191),
        0, 11, 0, {}),
    "pipelined": (
        (1.8282745069276591, 3.3153086887458403, 5.659114405109479,
         6.250567738442915, 6.2791910717762525, 6.2791910717762525),
        8, 3, 0, {"node1": list(range(11))}),
    "watermark": (
        (1.3741442548731113, 7.089247358873115, 7.089247358873115,
         7.089247358873115, 7.091247358873114, 7.091247358873114),
        13, 3, 0, {"node1": list(range(16))}),
}


def _snapshot_options(strategy, **extra):
    return MigrationOptions(rates=RATES, chunk_mb=1.0, strategy=strategy,
                            **extra)


def _pinned(report, journal):
    stamps = (report.started_at, report.snapshot_at, report.restored_at,
              report.caught_up_at, report.switched_at, report.ended_at)
    assert report.outcome == "ok"
    assert report.consistent is True
    return (stamps, report.chunks, report.chunks_skipped,
            report.ship_retries, dict(journal.chunk_log))


def _journalled_testbed(nodes, **tenant_kwargs):
    env = Environment()
    cluster, middleware = build(env, nodes=nodes, resumable=True)
    seed_tenant(env, cluster, middleware, overhead_mb=10.0,
                **tenant_kwargs)
    return env, cluster, middleware


def _resume(env, middleware, strategy):
    holder = {}

    def main(env):
        holder["report"] = yield from middleware.resume_migration(
            "A", _snapshot_options(strategy))
    env.process(main(env))
    env.run()
    return holder["report"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_standby_migration_across_an_outage_is_pinned(strategy):
    """One standby, and a link outage covering the first 2.5 s so every
    strategy's ship retry loop runs."""
    env, cluster, middleware = _journalled_testbed(3, think_time=0.05)
    cluster.network.fail_link()

    def healer(env):
        yield env.timeout(2.5)
        cluster.network.restore_link()
    env.process(healer(env))
    holder = {}

    def main(env):
        holder["report"] = yield from middleware.migrate(
            "A", "node1", _snapshot_options(strategy,
                                            standbys=("node2",)))
    env.process(main(env))
    env.run()
    report = holder["report"]
    assert report.standby_consistency == {"node2": True}
    assert _pinned(report, middleware.migration_journal("A")) \
        == STANDBY_PINS[strategy]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_resume_after_a_mid_dump_source_crash_is_pinned(strategy):
    env, cluster, middleware = _journalled_testbed(2)
    holder = {}

    def main(env):
        with pytest.raises(SourceCrashed):
            yield from middleware.migrate("A", "node1",
                                          _snapshot_options(strategy))
        holder["parked"] = True
    env.process(main(env))
    env.run(until=env.now + 1.0)
    source = cluster.node("node0").instance
    source.crash()
    env.run()
    assert holder["parked"]
    restart = env.process(source.restart())
    env.run()
    assert restart.ok
    report = _resume(env, middleware, strategy)
    assert report.resumed is True
    assert _pinned(report, middleware.migration_journal("A")) \
        == RESUME_PINS[strategy]


def _resume_after_a_manager_kill(strategy):
    """Kill the migration's manager 1 s into the dump, then resume."""
    env, _cluster, middleware = _journalled_testbed(2)
    holder = {}

    def main(env):
        with pytest.raises(Interrupt):
            yield from middleware.migrate("A", "node1",
                                          _snapshot_options(strategy))
        holder["killed"] = True
    manager = env.process(main(env))
    env.run(until=env.now + 1.0)
    manager.interrupt("manager died")
    env.run(until=env.now + 0.5)
    assert holder["killed"]
    report = _resume(env, middleware, strategy)
    assert report.strategy == strategy
    return _pinned(report, middleware.migration_journal("A")), report


def test_resumed_serial_migration_streams_from_the_journal():
    """A serial migration whose manager dies mid-dump resumes on the
    streamed path: chunked, re-shipping the whole frozen plan."""
    pinned, report = _resume_after_a_manager_kill("serial")
    assert report.pipelined is False
    assert pinned == (
        (1.75, 3.7946719999999994, 6.944934443636367, 7.616117776969814,
         7.664441110303156, 7.664441110303156),
        11, 0, 0, {"node1": list(range(11))})


#: ``_pinned`` tuples for a resume after the manager dies mid-dump.
MANAGER_KILL_PINS = {
    # The interrupted dump held the source disk's head; it must be
    # given back, or the resumed run's first disk read waits forever.
    "pipelined": (
        (1.75, 3.422913454545454, 6.035538080000002, 6.6615214133334435,
         6.717748080000121, 6.717748080000121),
        9, 2, 0, {"node1": list(range(11))}),
    "watermark": (
        (1.75, 7.465103104000003, 7.465103104000003, 7.465103104000003,
         7.467103104000003, 7.467103104000003),
        13, 3, 0, {"node1": list(range(16))}),
}


@pytest.mark.parametrize("strategy", sorted(MANAGER_KILL_PINS))
def test_resume_after_a_manager_kill_is_pinned(strategy):
    pinned, _report = _resume_after_a_manager_kill(strategy)
    assert pinned == MANAGER_KILL_PINS[strategy]
