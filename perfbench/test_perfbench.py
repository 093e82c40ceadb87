"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from spans import ENTRY_POINTS, Ledger, install, layer_of_file  # noqa: E402
from spans import uninstall  # noqa: E402
from stats import nearest_rank  # noqa: E402


def reference_rank(samples, q):
    """Nearest rank by its definition: the smallest sample such that at
    least a ``q`` share of the samples is no larger than it."""
    ordered = sorted(samples)
    for index, value in enumerate(ordered):
        if index + 1 >= q * len(ordered):
            return value
    return ordered[-1]


def test_nearest_rank_matches_reference_sort():
    rng = random.Random(11)
    for _ in range(500):
        samples = [rng.choice((rng.random(), rng.randint(0, 5)))
                   for _ in range(rng.randint(1, 60))]
        for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0, rng.random()):
            assert nearest_rank(samples, q) == reference_rank(samples, q)


def test_nearest_rank_small_samples():
    assert nearest_rank([3.0], 0.99) == 3.0
    assert nearest_rank([4, 1, 3, 2], 0.5) == 2
    assert nearest_rank([4, 1, 3, 2], 0.51) == 3
    # p99 of 50 samples is the largest, p50 the 25th smallest
    assert nearest_rank(range(50), 0.99) == 49
    assert nearest_rank(range(50), 0.5) == 24


@pytest.mark.parametrize("samples, q", [([], 0.5), ([1.0], 1.5),
                                        ([1.0], -0.1)])
def test_nearest_rank_rejects_bad_input(samples, q):
    with pytest.raises(ValueError):
        nearest_rank(samples, q)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_generators():
    clock = FakeClock()
    ledger = Ledger(clock)
    parse = ledger.wrap(lambda: clock.advance(0.5), "parse")

    def inner():
        clock.advance(2.0)
        yield "inner-wait"
        parse()
        clock.advance(3.0)
        return "inner-result"

    traced_inner = ledger.wrap(inner, "inner")

    def outer():
        clock.advance(1.0)
        got = yield from traced_inner()
        clock.advance(4.0)
        yield "outer-wait"
        clock.advance(8.0)
        return got

    process = ledger.timed_generator(outer(), "outer")
    assert next(process) == "inner-wait"
    clock.advance(100.0)  # parked between resumes: charged to nobody
    assert process.send(None) == "outer-wait"
    with pytest.raises(StopIteration) as stop:
        process.send(None)
    assert stop.value.value == "inner-result"
    assert dict(ledger.self_s) == {"outer": 13.0, "inner": 5.0,
                                   "parse": 0.5}
    assert ledger._stack == []


def test_exceptions_reach_the_wrapped_generator():
    ledger = Ledger(FakeClock())

    def waiter():
        try:
            yield "wait"
        except KeyError:
            return "interrupted"

    process = ledger.timed_generator(waiter(), "workload")
    assert next(process) == "wait"
    with pytest.raises(StopIteration) as stop:
        process.throw(KeyError("cause"))
    assert stop.value.value == "interrupted"
    assert ledger._stack == []


def test_wrap_counts_calls_and_reset_forgets():
    clock = FakeClock()
    ledger = Ledger(clock)
    work = ledger.wrap(lambda: clock.advance(1.0), "engine", "engine.calls")
    work()
    work()
    assert ledger.counts["engine.calls"] == 2
    assert ledger.self_s["engine"] == 2.0
    ledger.reset()
    assert not ledger.counts and not ledger.self_s


@pytest.mark.parametrize("path, layer", [
    ("src/repro/sim/sync.py", "sim"),
    ("src/repro/engine/dump.py", "engine.bulk"),
    ("src/repro/engine/instance.py", "engine"),
    ("src/repro/core/propagation.py", "core.propagation"),
    ("src/repro/core/watermark.py", "core.pipeline"),
    ("src/repro/core/scheduler.py", "core.scheduler"),
    ("src/repro/core/middleware.py", "core.middleware"),
    ("src/repro/router/shard.py", "router"),
    ("src/repro/net/network.py", "net"),
    ("src/repro/obs/trace.py", "obs"),
    ("src/repro/workload/tpcw/browser.py", "workload"),
    ("perfbench/workloads.py", "workload"),
])
def test_layer_of_file(path, layer):
    assert layer_of_file(path) == layer


def entry_point_objects():
    objects = {}
    for module_name, owner, attribute, _layer, _counter in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        holder = getattr(module, owner) if owner else module
        objects[module_name, owner, attribute] = getattr(holder, attribute)
    return objects


def test_install_wraps_and_uninstall_restores():
    import repro.core.middleware as middleware_module
    from repro.sim.core import Environment

    process = Environment.process
    patches = install(Ledger())
    try:
        wrapped = entry_point_objects()
        imported_parse = middleware_module.parse
        assert Environment.process is not process
    finally:
        uninstall(patches)
    restored = entry_point_objects()
    assert all(wrapped[key] is not restored[key] for key in restored)
    # a function imported by name into another module is wrapped there
    # too, and restored
    original_parse = restored["repro.engine.sqlmini", None, "parse"]
    assert imported_parse is not original_parse
    assert middleware_module.parse is original_parse
    assert Environment.process is process


def test_gauge_set_is_timed_and_totalled_by_one_wrapper():
    from repro.obs.metrics import Gauge, MetricsRegistry

    original = Gauge.__dict__["set"]
    ledger = Ledger()
    patches = install(ledger)
    try:
        assert sum(1 for holder, attribute, _ in patches
                   if holder is Gauge and attribute == "set") == 1
        gauge = MetricsRegistry().gauge("pipeline.backpressure_wait_s")
        gauge.set(1.5)
        gauge.set(2.0)
    finally:
        uninstall(patches)
    gauge.set(9.0)
    assert ledger.gauge_totals == {"pipeline.backpressure_wait_s": 3.5}
    assert ledger.counts["obs.calls"] == 3  # gauge() and two set()s
    assert gauge.value == 9.0
    assert Gauge.__dict__["set"] is original


def test_every_attempted_migration_is_counted():
    from workloads import SimResult, pooled_counts

    # a scheduler job that failed without a report still counts
    result = SimResult(txn_latencies=[0.1, 0.2], txn_aborted=1,
                       outcomes=["ok", "ok", "failed"])
    counts = pooled_counts([result])
    assert counts["migrations"] == 3
    assert counts["migrations_not_ok"] == 1
    assert counts["attempted"] == 2 + 1 + 3
    assert counts["failed"] == 1 + 1


def test_benchmark_json_lists_what_a_run_reports():
    import json

    import layers
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    assert {metric["name"]: metric["unit"]
            for metric in benchmark["end_to_end"]} == run.END_TO_END_UNITS
    assert {metric["name"]: metric["unit"]
            for metric in benchmark["per_layer"]} == layers.PER_LAYER_UNITS
    assert [workload["name"] for workload in benchmark["workloads"]] == \
        list(run.WORKLOAD_NAMES)
