#!/usr/bin/env python3
"""CI regression gate over ``BENCH_*.json`` bench artifacts.

Validates the artifacts ``repro bench`` wrote (schema documented in
EXPERIMENTS.md): every case carries the required fields, phase durations
are non-negative and consistent with the wall clock, pipelined cases
report chunks, and — for the ``pipeline`` scenario — the streamed path
beats the serial path at every size by at least ``--min-improvement``
(a *relative* ordering; per ROADMAP.md's tolerance policy the gate
never asserts absolute timings).  For the ``multitenant_parallel``
scenario, every scheduled run must beat (or at worst match) the
serialized baseline, and ``--min-parallel-improvement`` gates the
headline (fifo, uncapped) comparison — again relative only.

The watermark gate (``--require-watermark``) is structural and
relative, per the same tolerance policy: the pipeline artifact must
carry watermark rows (``strategy: "watermark"``, chunked), watermark
must not be slower than serial at any size, and at the largest size —
4x the rate model's ``base_mb`` knee, where the dump window is widest —
the watermark catch-up window must be *strictly* smaller than the
pipelined one (the whole point of the virtual-cut path: catch-up
bounded by chunk size instead of dump duration).

Like ``check_trace.py`` this script is deliberately stdlib-only and
does not import :mod:`repro`, so a bug that breaks the bench harness
fails the gate instead of hiding it.

For ``BENCH_rebalance.json`` (the continuous control plane) the gate
is structural and relative only: the imbalance coefficient must
strictly decrease across every hotspot phase, at least one move must
have been submitted, and every safety counter (lost commits, value
mismatches, cooldown violations, owner violations) must be zero.

For ``BENCH_simthroughput.json`` (real wall-clock substrate rates) the
structural checks apply to its own schema, and ``--baseline`` enables
the perf gate: every case's throughput in the checked artifact must be
at least ``(1 - --max-throughput-regression)`` times the same case's
throughput in the baseline artifact — a relative comparison of two runs
on the same runner, never an absolute bar.

For ``BENCH_router.json`` (per-request downtime through the router
tier) the gate is again structural and relative only: all three
snapshot strategies present with >= 25 clean migrations each, every
zero-loss safety counter (lost requests, phantom increments, dropped
acks, park rejects/timeouts) at zero, monotone downtime percentiles,
and the headline ordering — the watermark strategy's downtime p99
strictly below the serial one's.  ``--require-router`` additionally
fails the run when no router artifact was among the inputs, so the CI
job cannot silently skip the scenario.

Usage::

    python scripts/check_bench.py BENCH_pipeline.json \
        BENCH_policies.json BENCH_multitenant_parallel.json \
        --min-improvement 0.25 --min-parallel-improvement 0.1

    python scripts/check_bench.py BENCH_simthroughput.json \
        --baseline base/BENCH_simthroughput.json \
        --max-throughput-regression 0.3
"""

import argparse
import json
import sys

CASE_FIELDS = ("scenario", "policy", "size_mb", "pipelined",
               "wall_clock", "phases", "rounds", "group_commit",
               "chunks", "ship_retries", "consistent")
PHASE_NAMES = ("dump", "restore", "catch-up", "handover")
GROUP_COMMIT_FIELDS = ("commits", "flushes", "mean_group_size")


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SystemExit("cannot read bench artifact %s: %s"
                         % (path, exc))
    except json.JSONDecodeError as exc:
        raise SystemExit("%s: invalid JSON: %s" % (path, exc))


def check_case(index, case):
    """Structural failures for one case record."""
    failures = []
    label = "case %d" % index
    for field in CASE_FIELDS:
        if field not in case:
            failures.append("%s: missing field %r" % (label, field))
    if failures:
        return failures
    # The snapshot path: pre-watermark artifacts spell it through the
    # ``pipelined`` boolean; watermark rows carry an explicit
    # ``strategy`` key (serial/pipelined rows deliberately do not, so
    # their schema stays byte-identical across artifact versions).
    strategy = case.get("strategy") or ("pipelined" if case["pipelined"]
                                        else "serial")
    label = "case %d (%s/%s, %.0f MB, %s)" % (
        index, case["scenario"], case["policy"], case["size_mb"],
        strategy)
    if case["wall_clock"] <= 0:
        failures.append("%s: wall_clock must be positive" % label)
    for phase in PHASE_NAMES:
        if phase not in case["phases"]:
            failures.append("%s: missing phase %r" % (label, phase))
        elif case["phases"][phase] < 0:
            failures.append("%s: phase %r has negative duration"
                            % (label, phase))
    phase_sum = sum(case["phases"].get(p, 0.0) for p in PHASE_NAMES)
    if phase_sum > case["wall_clock"] * 1.001:
        failures.append("%s: phases sum to %.3f s > wall_clock %.3f s"
                        % (label, phase_sum, case["wall_clock"]))
    for field in GROUP_COMMIT_FIELDS:
        if field not in case["group_commit"]:
            failures.append("%s: group_commit missing %r"
                            % (label, field))
    if strategy == "watermark" and case["pipelined"]:
        failures.append("%s: watermark case claims pipelined" % label)
    if strategy in ("pipelined", "watermark") and case["chunks"] < 1:
        failures.append("%s: chunked case reports no chunks" % label)
    if strategy == "serial" and case["chunks"] != 0:
        failures.append("%s: serial case reports %d chunks"
                        % (label, case["chunks"]))
    if case["consistent"] is False:
        failures.append("%s: migration was NOT consistent" % label)
    return failures


def check_pipeline_comparisons(data, min_improvement):
    """Relative-ordering failures for the pipeline scenario."""
    failures = []
    comparisons = data.get("comparisons") or []
    if not comparisons:
        failures.append("pipeline artifact has no comparisons")
        return failures
    for comparison in comparisons:
        for field in ("size_mb", "serial_wall_clock",
                      "pipelined_wall_clock", "improvement"):
            if field not in comparison:
                failures.append("comparison missing field %r" % field)
                return failures
        # A database that fits in one chunk legitimately ties, so per
        # size the bar is non-regression; --min-improvement gates the
        # headline (largest-size) comparison strictly.
        if (comparison["pipelined_wall_clock"]
                > comparison["serial_wall_clock"] * 1.0001):
            failures.append(
                "@ %.0f MB: pipelined (%.3f s) is slower than "
                "serial (%.3f s)"
                % (comparison["size_mb"],
                   comparison["pipelined_wall_clock"],
                   comparison["serial_wall_clock"]))
    headline = data.get("headline_improvement")
    if headline is None:
        failures.append("headline_improvement missing")
    elif min_improvement is not None and headline < min_improvement:
        failures.append(
            "headline improvement %.1f%% < required %.1f%%"
            % (100.0 * headline, 100.0 * min_improvement))
    return failures


WATERMARK_COMPARISON_FIELDS = ("watermark_wall_clock",
                               "watermark_improvement",
                               "watermark_catchup", "pipelined_catchup")


def check_watermark_comparisons(data, required):
    """Relative-ordering failures for the watermark snapshot path.

    With ``required`` (the ``--require-watermark`` gate) the pipeline
    artifact must carry the three-way comparison; without it, a
    pre-watermark artifact passes untouched but any watermark fields
    that *are* present still have to be internally consistent.
    """
    failures = []
    comparisons = [c for c in (data.get("comparisons") or [])
                   if any(f in c for f in WATERMARK_COMPARISON_FIELDS)]
    if not comparisons:
        if required:
            failures.append("--require-watermark: pipeline artifact "
                            "has no watermark comparisons")
        return failures
    if not any(case.get("strategy") == "watermark"
               for case in data.get("cases", [])):
        failures.append("watermark comparisons present but no "
                        "watermark cases")
    checked = []
    for comparison in comparisons:
        missing = [f for f in WATERMARK_COMPARISON_FIELDS
                   if f not in comparison]
        if missing:
            failures.append("comparison @ %.0f MB: missing watermark "
                            "fields %s" % (comparison.get("size_mb", -1),
                                           ", ".join(missing)))
            continue
        label = "@ %.0f MB" % comparison["size_mb"]
        # Non-regression vs serial at every size (like the pipelined
        # bar above); the catch-up ordering is gated at the largest
        # size only, where the dump window is widest.
        if (comparison["watermark_wall_clock"]
                > comparison["serial_wall_clock"] * 1.0001):
            failures.append(
                "%s: watermark (%.3f s) is slower than serial (%.3f s)"
                % (label, comparison["watermark_wall_clock"],
                   comparison["serial_wall_clock"]))
        for field in ("watermark_catchup", "pipelined_catchup"):
            if comparison[field] < 0:
                failures.append("%s: negative %s" % (label, field))
        checked.append(comparison)
    if checked:
        largest = max(checked, key=lambda c: c["size_mb"])
        if not (largest["watermark_catchup"]
                < largest["pipelined_catchup"]):
            failures.append(
                "@ %.0f MB: watermark catch-up window (%.3f s) is not "
                "strictly smaller than the pipelined one (%.3f s)"
                % (largest["size_mb"], largest["watermark_catchup"],
                   largest["pipelined_catchup"]))
    return failures


PARALLEL_COMPARISON_FIELDS = ("policy", "max_concurrent",
                              "serialized_wall_clock",
                              "concurrent_wall_clock", "improvement",
                              "max_in_flight", "total_queue_wait")


def check_parallel_comparisons(data, min_improvement):
    """Relative-ordering failures for multitenant_parallel."""
    failures = []
    cases = data.get("cases", [])
    modes = {case.get("mode") for case in cases}
    if not any(m == "serialized" for m in modes if m):
        failures.append("no serialized baseline cases")
    # The baseline runs its migrations back to back, so its wall clock
    # is exactly the sum of theirs: anything longer is idle time the
    # measurement added (e.g. waiting for a polling boundary).
    serialized_sum = sum(case.get("wall_clock", 0.0) for case in cases
                         if case.get("mode") == "serialized")
    if not any(m and m.startswith("concurrent:") for m in modes):
        failures.append("no concurrent (scheduled) cases")
    comparisons = data.get("comparisons") or []
    if not comparisons:
        failures.append("multitenant_parallel artifact has no "
                        "comparisons")
        return failures
    for comparison in comparisons:
        for field in PARALLEL_COMPARISON_FIELDS:
            if field not in comparison:
                failures.append("comparison missing field %r" % field)
                return failures
        label = "schedule %s" % comparison["policy"]
        if comparison["max_concurrent"]:
            label += " (cap %d)" % comparison["max_concurrent"]
        # Non-regression for every policy/cap point; the strict bar
        # (--min-parallel-improvement) applies to the headline only.
        if (comparison["concurrent_wall_clock"]
                > comparison["serialized_wall_clock"] * 1.0001):
            failures.append(
                "%s: concurrent (%.3f s) is slower than serialized "
                "(%.3f s)"
                % (label, comparison["concurrent_wall_clock"],
                   comparison["serialized_wall_clock"]))
        if (abs(comparison["serialized_wall_clock"] - serialized_sum)
                > 1e-6 * serialized_sum):
            failures.append(
                "%s: serialized_wall_clock %.6f s is not the sum of the "
                "serialized cases' wall_clock (%.6f s)"
                % (label, comparison["serialized_wall_clock"],
                   serialized_sum))
        if comparison["max_in_flight"] < 1:
            failures.append("%s: max_in_flight < 1" % label)
        if (comparison["max_concurrent"]
                and comparison["max_in_flight"]
                > comparison["max_concurrent"]):
            failures.append(
                "%s: max_in_flight %d exceeds the admission cap"
                % (label, comparison["max_in_flight"]))
        if comparison["total_queue_wait"] < 0:
            failures.append("%s: negative total_queue_wait" % label)
    headline = data.get("headline_improvement")
    if headline is None:
        failures.append("headline_improvement missing")
    elif min_improvement is not None and headline < min_improvement:
        failures.append(
            "headline parallel improvement %.1f%% < required %.1f%%"
            % (100.0 * headline, 100.0 * min_improvement))
    return failures


SIMTHROUGHPUT_CASE_FIELDS = ("case", "metric", "operations",
                             "wall_seconds", "throughput")
SIMTHROUGHPUT_REQUIRED_CASES = ("kernel_ping_pong", "parser_replay",
                                "mvcc_read", "engine_point_select",
                                "migration_e2e")


def check_simthroughput(data, args):
    """Structural + relative-regression failures for simthroughput."""
    failures = []
    cases = {}
    for index, case in enumerate(data.get("cases", [])):
        label = "case %d" % index
        missing = [f for f in SIMTHROUGHPUT_CASE_FIELDS if f not in case]
        if missing:
            failures.append("%s: missing fields %s"
                            % (label, ", ".join(missing)))
            continue
        label = "case %s" % case["case"]
        if case["operations"] <= 0:
            failures.append("%s: operations must be positive" % label)
        if case["wall_seconds"] <= 0:
            failures.append("%s: wall_seconds must be positive" % label)
        if case["throughput"] <= 0:
            failures.append("%s: throughput must be positive" % label)
        cases[case["case"]] = case
    for name in SIMTHROUGHPUT_REQUIRED_CASES:
        if name not in cases:
            failures.append("missing required case %r" % name)
    smoke = data.get("paper_smoke")
    if smoke is not None:
        for field in ("wall_seconds", "budget_seconds", "within_budget",
                      "events_processed"):
            if field not in smoke:
                failures.append("paper_smoke missing field %r" % field)
        if smoke.get("within_budget") is False:
            failures.append(
                "paper-profile migration took %.1f s, over the %.0f s "
                "budget" % (smoke.get("wall_seconds", float("nan")),
                            smoke.get("budget_seconds", float("nan"))))
    if args.baseline is not None:
        base = load(args.baseline)
        if base.get("bench") != "simthroughput":
            failures.append("--baseline %s is not a simthroughput "
                            "artifact" % args.baseline)
            return failures
        tolerance = args.max_throughput_regression
        base_cases = {case.get("case"): case
                      for case in base.get("cases", [])}
        for name, case in sorted(cases.items()):
            base_case = base_cases.get(name)
            if base_case is None:
                # New case with no baseline counterpart: nothing to
                # compare against (happens when a PR adds a case).
                continue
            floor = base_case["throughput"] * (1.0 - tolerance)
            if case["throughput"] < floor:
                failures.append(
                    "case %s: throughput %.0f/s regressed more than "
                    "%.0f%% vs baseline %.0f/s"
                    % (name, case["throughput"], 100.0 * tolerance,
                       base_case["throughput"]))
    return failures


REBALANCE_PHASE_FIELDS = ("phase", "hot_node", "started", "ended",
                          "imbalance_before", "imbalance_after",
                          "moves_submitted", "moves_ok")
REBALANCE_MOVE_FIELDS = ("tenant", "source", "destination",
                         "decided_at", "outcome", "attempts",
                         "predicted_cost", "observed_cost")
REBALANCE_SUMMARY_FIELDS = ("samples", "decisions", "moves_submitted",
                            "moves_ok", "moves_failed",
                            "mean_cost_error", "committed_txns",
                            "lost_commits", "value_mismatches",
                            "owner_violations", "cooldown_violations",
                            "converged", "ok")


def check_rebalance(data):
    """Structural + relative failures for the rebalance scenario.

    All relative per ROADMAP.md's tolerance policy: the imbalance
    coefficient must strictly *decrease* across every hotspot phase
    and every safety counter must be zero — no absolute timings or
    absolute imbalance values are asserted.
    """
    failures = []
    for index, phase in enumerate(data.get("cases", [])):
        label = "phase %d" % index
        missing = [f for f in REBALANCE_PHASE_FIELDS if f not in phase]
        if missing:
            failures.append("%s: missing fields %s"
                            % (label, ", ".join(missing)))
            continue
        label = "phase %d (hot %s)" % (phase["phase"],
                                       phase["hot_node"])
        if phase["ended"] <= phase["started"]:
            failures.append("%s: ended <= started" % label)
        if phase["imbalance_after"] >= phase["imbalance_before"]:
            failures.append(
                "%s: imbalance did not decrease (%.3f -> %.3f)"
                % (label, phase["imbalance_before"],
                   phase["imbalance_after"]))
        if phase["moves_ok"] > phase["moves_submitted"]:
            failures.append("%s: moves_ok exceeds moves_submitted"
                            % label)
    moves = data.get("moves")
    if moves is None:
        failures.append("rebalance artifact has no moves list")
        moves = []
    for index, move in enumerate(moves):
        missing = [f for f in REBALANCE_MOVE_FIELDS if f not in move]
        if missing:
            failures.append("move %d: missing fields %s"
                            % (index, ", ".join(missing)))
            continue
        label = "move %d (%s)" % (index, move["tenant"])
        if move["source"] == move["destination"]:
            failures.append("%s: source == destination" % label)
        if move["outcome"] == "ok" and move["observed_cost"] is None:
            failures.append("%s: ok move has no observed_cost" % label)
        if move["predicted_cost"] <= 0:
            failures.append("%s: predicted_cost must be positive"
                            % label)
    summary = data.get("summary")
    if summary is None:
        failures.append("rebalance artifact has no summary")
        return failures
    missing = [f for f in REBALANCE_SUMMARY_FIELDS if f not in summary]
    if missing:
        failures.append("summary: missing fields %s"
                        % ", ".join(missing))
        return failures
    if summary["moves_submitted"] < 1:
        failures.append("the rebalancer submitted no moves")
    if summary["moves_submitted"] != len(moves):
        failures.append("summary.moves_submitted = %d but the moves "
                        "list has %d entries"
                        % (summary["moves_submitted"], len(moves)))
    for counter in ("lost_commits", "value_mismatches",
                    "cooldown_violations"):
        if summary[counter] != 0:
            failures.append("summary.%s = %s, expected 0"
                            % (counter, summary[counter]))
    if summary["owner_violations"]:
        failures.append("owner violations: %s"
                        % summary["owner_violations"])
    if not summary["converged"]:
        failures.append("run did not converge (summary.converged)")
    if not summary["ok"]:
        failures.append("summary.ok is false")
    return failures


ROUTER_STRATEGY_FIELDS = ("strategy", "migrations_ok",
                          "migrations_failed", "committed_txns",
                          "aborted_txns", "lost_requests",
                          "phantom_increments", "downtime", "requests",
                          "blocked_requests", "stale_routes",
                          "park_rejects", "park_timeouts",
                          "acks_dropped")
ROUTER_ZERO_COUNTERS = ("migrations_failed", "lost_requests",
                        "phantom_increments", "acks_dropped",
                        "park_rejects", "park_timeouts")
ROUTER_DOWNTIME_FIELDS = ("count", "mean", "p50", "p90", "p99", "max")
ROUTER_REQUIRED_STRATEGIES = ("serial", "pipelined", "watermark")
ROUTER_COMPARISON_FIELDS = ("baseline", "candidate", "serial_p99",
                            "candidate_p99", "p99_improvement")
ROUTER_MIN_MIGRATIONS = 25


def check_router(data):
    """Structural + relative failures for the router scenario.

    Per ROADMAP.md's tolerance policy everything here is structural or
    relative: >= 25 clean migrations per strategy, zero-loss safety
    counters, monotone downtime percentiles, and the headline ordering
    — the watermark strategy's per-request downtime p99 strictly below
    the serial one's.  No absolute durations are asserted.
    """
    failures = []
    migrations = data.get("migrations_per_strategy")
    if not migrations or migrations < ROUTER_MIN_MIGRATIONS:
        failures.append("migrations_per_strategy is %r, need >= %d"
                        % (migrations, ROUTER_MIN_MIGRATIONS))
    records = {}
    for index, record in enumerate(data.get("strategies", [])):
        label = "strategy %d" % index
        missing = [f for f in ROUTER_STRATEGY_FIELDS if f not in record]
        if missing:
            failures.append("%s: missing fields %s"
                            % (label, ", ".join(missing)))
            continue
        label = "strategy %s" % record["strategy"]
        records[record["strategy"]] = record
        if migrations and record["migrations_ok"] < migrations:
            failures.append("%s: only %d of %d migrations ok"
                            % (label, record["migrations_ok"],
                               migrations))
        for counter in ROUTER_ZERO_COUNTERS:
            if record[counter] != 0:
                failures.append("%s: %s = %s, expected 0"
                                % (label, counter, record[counter]))
        downtime = record["downtime"]
        missing = [f for f in ROUTER_DOWNTIME_FIELDS
                   if f not in downtime]
        if missing:
            failures.append("%s: downtime histogram missing %s"
                            % (label, ", ".join(missing)))
            continue
        if downtime["count"] < 1:
            failures.append("%s: empty downtime histogram — no request "
                            "ever observed a handover" % label)
        if not (0.0 <= downtime["p50"] <= downtime["p90"]
                <= downtime["p99"] <= downtime["max"]):
            failures.append("%s: downtime percentiles are not monotone "
                            "(p50 %.6f, p90 %.6f, p99 %.6f, max %.6f)"
                            % (label, downtime["p50"], downtime["p90"],
                               downtime["p99"], downtime["max"]))
    for name in ROUTER_REQUIRED_STRATEGIES:
        if name not in records:
            failures.append("missing strategy record %r" % name)
    comparisons = data.get("comparisons") or []
    if not comparisons:
        failures.append("router artifact has no comparisons")
    for comparison in comparisons:
        missing = [f for f in ROUTER_COMPARISON_FIELDS
                   if f not in comparison]
        if missing:
            failures.append("comparison: missing fields %s"
                            % ", ".join(missing))
    if "serial" in records and "watermark" in records:
        serial_p99 = records["serial"]["downtime"]["p99"]
        watermark_p99 = records["watermark"]["downtime"]["p99"]
        if not watermark_p99 < serial_p99:
            failures.append(
                "watermark downtime p99 (%.6f s) is not strictly below "
                "serial (%.6f s)" % (watermark_p99, serial_p99))
    return failures


def check_file(path, args):
    """Return a list of failures for one BENCH_*.json artifact."""
    failures = []
    data = load(path)
    for field in ("bench", "profile", "seed"):
        if field not in data:
            failures.append("missing top-level field %r" % field)
    if failures:
        return failures
    if data["bench"] == "router":
        # Its own schema: per-strategy records, no migration cases.
        failures.extend(check_router(data))
        return failures
    if "cases" not in data:
        failures.append("missing top-level field 'cases'")
        return failures
    if not data["cases"]:
        failures.append("artifact has no cases")
    if data["bench"] == "simthroughput":
        # Its own schema: skip the migration-case validation entirely.
        failures.extend(check_simthroughput(data, args))
        return failures
    if data["bench"] == "rebalance":
        # Also its own schema (per-phase records, not migration cases).
        failures.extend(check_rebalance(data))
        return failures
    for index, case in enumerate(data["cases"]):
        failures.extend(check_case(index, case))
    if data["bench"] == "pipeline":
        failures.extend(
            check_pipeline_comparisons(data, args.min_improvement))
        failures.extend(
            check_watermark_comparisons(data, args.require_watermark))
    elif data["bench"] == "multitenant_parallel":
        failures.extend(
            check_parallel_comparisons(data,
                                       args.min_parallel_improvement))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Gate CI on BENCH_*.json bench artifacts.")
    parser.add_argument("artifacts", nargs="+", metavar="BENCH",
                        help="BENCH_*.json files to check")
    parser.add_argument("--min-improvement", type=float, default=None,
                        help="minimum relative headline improvement of "
                             "pipelined over serial (e.g. 0.25)")
    parser.add_argument("--min-parallel-improvement", type=float,
                        default=None,
                        help="minimum relative headline improvement of "
                             "scheduler-concurrent over serialized "
                             "multi-tenant migration (e.g. 0.1)")
    parser.add_argument("--require-watermark", action="store_true",
                        help="require the three-way watermark "
                             "comparison in the pipeline artifact and "
                             "gate its catch-up window (strictly "
                             "smaller than pipelined at the largest "
                             "size)")
    parser.add_argument("--require-router", action="store_true",
                        help="require a BENCH_router.json artifact "
                             "among the inputs (fails the run when the "
                             "router downtime scenario was skipped)")
    parser.add_argument("--baseline", default=None, metavar="BENCH",
                        help="baseline BENCH_simthroughput.json to "
                             "compare throughputs against (the perf "
                             "gate's base-commit run)")
    parser.add_argument("--max-throughput-regression", type=float,
                        default=0.3,
                        help="maximum tolerated relative throughput "
                             "drop per case vs --baseline "
                             "(default: 0.3)")
    args = parser.parse_args(argv)

    exit_code = 0
    benches_seen = set()
    for path in args.artifacts:
        failures = check_file(path, args)
        benches_seen.add(load(path).get("bench"))
        if failures:
            exit_code = 1
            print("FAIL %s" % path)
            for failure in failures:
                print("  - %s" % failure)
        else:
            print("PASS %s" % path)
    if args.require_router and "router" not in benches_seen:
        exit_code = 1
        print("FAIL --require-router: no router artifact among the "
              "inputs (saw: %s)"
              % (", ".join(sorted(b for b in benches_seen if b))
                 or "none"))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
