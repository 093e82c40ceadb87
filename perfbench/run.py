"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload tpcw-ordering --seed 7 \\
        --seconds 20 --trace 0

Run from the repository root; ``repro`` is imported from ``src/``.  A
run makes a fixed number of repetitions, enough to fill ``--seconds``
of timed host time on the reference machine.  Repetition ``i`` sets the
workload up afresh from sub-seed ``1000 * seed + i`` and runs its timed
region; the simulated metrics pool the samples of every repetition, so
they depend on ``--seed`` and ``--seconds`` alone.  Host times are
medians over the repetitions: ``wall_s`` of the timed regions,
``setup_s`` of one fresh-interpreter ``import repro.api`` plus that
repetition's setup.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` follows
each repetition with a traced one of the same sub-seed, checks that
both give the same simulated results, and prints the per-layer metrics
(see ``spans.py`` and ``layers.py``) plus ``trace.overhead_frac``.
Every line names a metric and its unit; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when a check fails.
``--workload all`` runs each workload in its own process, one after
another.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

# The modules beside this one import ``repro``; they are imported only
# after ``main`` has put ``src`` on the path.
HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")
#: The workloads, in the order ``--workload all`` runs them.
WORKLOAD_NAMES = ("tpcw-ordering", "kv-router", "fleet-evacuate")

#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPETITIONS = 2

#: Sub-seeds a traced run covers, each untraced and then traced (the
#: per-layer metrics have no bound, so a traced run stays short).
TRACE_REPETITIONS = 2

#: Fewest committed client transactions behind the latency metrics.
MIN_TXN_SAMPLES = 1000

#: End-to-end metric units (``--trace 0``).
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "txn_mean_s": "s",
    "txn_per_s": "1/s",
    "migration_s_p50": "s",
    "makespan_s": "s",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print("%-36s %14.6g %-6s %s" % (name, value, unit, note))


class Runner:
    """Repetitions of one workload in this process."""

    def __init__(self, name: str):
        import workloads
        from repro.engine import sqlmini

        self.workload = workloads.WORKLOADS[name]
        #: The memoised parser itself (not a traced wrapper), whose
        #: cache is cleared before every setup: each repetition starts
        #: as cold as a fresh process.
        self.parse = sqlmini.parse

    def repetition(self, seed: int, ledger: Any = None
                   ) -> Tuple[float, float, Any, Dict[str, float]]:
        """One setup + timed region; ``(setup_s, wall_s, result,
        layer metrics)``.  With a ledger, the run is traced."""
        import layers
        import spans

        self.parse.cache_clear()
        gc.collect()
        patches = spans.install(ledger) if ledger is not None else []
        try:
            started = time.perf_counter()
            state = self.workload.setup(seed)
            setup_s = time.perf_counter() - started
            if ledger is not None:
                before = layers.Snapshot.take(state, self.parse)
                ledger.reset()
            started = time.perf_counter()
            result = self.workload.run(state)
            wall_s = time.perf_counter() - started
            layer_metrics: Dict[str, float] = {}
            if ledger is not None:
                layer_metrics = layers.per_layer(
                    ledger, before, layers.Snapshot.take(state, self.parse),
                    state, result)
        finally:
            spans.uninstall(patches)
        return setup_s, wall_s, result, layer_metrics


def repetitions(workload: Any, seconds: float) -> int:
    """How many repetitions fill ``seconds`` of timed host time on the
    reference machine.  A constant of the arguments, never a measured
    time, so the simulated results depend on the arguments alone."""
    return max(MIN_REPETITIONS, round(seconds / workload.repetition_s))


def check(results: List[Any], counts: Dict[str, int],
          workload: Any) -> List[str]:
    """The correctness checks on the pooled repetitions."""
    problems = [problem for result in results
                for problem in result.problems]
    if counts["txn_committed"] < MIN_TXN_SAMPLES:
        problems.append("only %d transaction samples (need %d)"
                        % (counts["txn_committed"], MIN_TXN_SAMPLES))
    if counts["downtime_samples"] < workload.min_downtime_samples:
        problems.append("only %d downtime samples (need %d)"
                        % (counts["downtime_samples"],
                           workload.min_downtime_samples))
    return problems


#: Run by a fresh interpreter: prints the host seconds that
#: ``import repro.api`` takes there.
IMPORT_TIMER = ("import time; started = time.perf_counter(); "
                "import repro.api; print(time.perf_counter() - started)")


def import_seconds() -> float:
    """Host time a fresh interpreter takes to import ``repro``.  It runs
    in a subprocess, since this process has imported it already, and is
    timed inside it: the interpreter's own start-up is not counted."""
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], check=True,
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SOURCE))
    return float(completed.stdout)


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    import spans
    import workloads

    runner = Runner(name)
    count = repetitions(runner.workload, seconds)
    if traced:
        count = min(count, TRACE_REPETITIONS)
    seeds = [seed * 1000 + index for index in range(count)]
    #: Import plus setup, per repetition.
    setups: List[float] = []
    walls: List[float] = []
    results: List[Any] = []
    problems: List[str] = []
    traced_walls: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    for sub_seed in seeds:
        import_s = import_seconds()
        setup_s, wall_s, result, _ = runner.repetition(sub_seed)
        setups.append(import_s + setup_s)
        walls.append(wall_s)
        results.append(result)
        if traced:
            _, wall_s, traced_result, layer_metrics = runner.repetition(
                sub_seed, spans.Ledger())
            traced_walls.append(wall_s)
            layer_runs.append(layer_metrics)
            problems += traced_result.problems
            if (workloads.pooled_metrics([traced_result])
                    != workloads.pooled_metrics([result])):
                problems.append("sub-seed %d: the traced run's simulated "
                                "metrics differ from the untraced run's"
                                % sub_seed)
    sim = workloads.pooled_metrics(results)
    counts = workloads.pooled_counts(results)
    problems += check(results, counts, runner.workload)
    for problem in problems:
        print("CHECK FAILED: %s" % problem)

    print("workload %s  seed %d  %d repetitions (sub-seeds %d..%d)%s"
          % (name, seed, len(seeds), seeds[0], seeds[-1],
             "  traced" if traced else ""))
    txn_note = "n=%d" % counts["txn_committed"]
    migration_note = "n=%d" % counts["migrations"]
    end_to_end = {
        "wall_s": (statistics.median(walls), "median of %d" % len(walls)),
        "setup_s": (statistics.median(setups),
                    "median of %d (import + setup)" % len(setups)),
        "peak_rss_mb": (peak_rss_mb(), ""),
        "txn_mean_s": (sim["txn_mean_s"], txn_note),
        "txn_per_s": (sim["txn_per_s"], txn_note),
        "migration_s_p50": (sim["migration_s_p50"], migration_note),
        "makespan_s": (sim["makespan_s"], migration_note),
    }
    for metric, (value, note) in end_to_end.items():
        emit(metric, value, END_TO_END_UNITS[metric], note)
    print("repetition wall_s: %s" % ", ".join("%.3f" % w for w in walls))
    print("repetition setup_s: %s"
          % ", ".join("%.3f" % s for s in setups))
    emit("txn_p50_s", sim["txn_p50_s"], "s", txn_note)
    emit("txn_p99_s", sim["txn_p99_s"], "s", txn_note)
    if "downtime_p50_s" in sim:
        downtime_note = "n=%d" % counts["downtime_samples"]
        emit("downtime_p50_s", sim["downtime_p50_s"], "s", downtime_note)
        emit("downtime_p90_s", sim["downtime_p90_s"], "s", downtime_note)
    emit("failed_frac", sim["failed_frac"], "ratio",
         "%d aborted + %d errored txns + %d migrations not ok, of %d"
         % (counts["txn_aborted"], counts["txn_errored"],
            counts["migrations_not_ok"], counts["attempted"]))

    if traced:
        import layers

        per_layer = {metric: statistics.mean(run[metric]
                                             for run in layer_runs)
                     for metric in layer_runs[0]}
        per_layer["workload.txn_p50_s"] = sim["txn_p50_s"]
        per_layer["workload.txn_p99_s"] = sim["txn_p99_s"]
        per_layer["workload.failed_frac"] = sim["failed_frac"]
        per_layer["trace.overhead_frac"] = (
            statistics.mean(traced_walls) / statistics.mean(walls) - 1.0)
        print("per layer, mean of %d traced repetitions:"
              % len(layer_runs))
        for metric, unit in layers.PER_LAYER_UNITS.items():
            emit(metric, per_layer[metric], unit)
        metrics = {metric: {"value": per_layer[metric], "unit": unit}
                   for metric, unit in layers.PER_LAYER_UNITS.items()}
    else:
        metrics = {metric: {"value": value,
                            "unit": END_TO_END_UNITS[metric]}
                   for metric, (value, _note) in end_to_end.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh process, so the process-wide parse
    cache and the peak-memory reading start clean."""
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Any] = {}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        if completed.returncode or not result:
            print("workload %s exited with code %d"
                  % (name, completed.returncode))
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics["%s/%s" % (name, metric)] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, SOURCE)
    try:
        import repro.api  # noqa: F401
    except ImportError as exc:
        print("cannot import repro from %s: %s" % (SOURCE, exc),
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
