"""Per-layer metrics of one traced repetition.

Self times come from the span :class:`~spans.Ledger`; counts are read
from the program's own public state as deltas over the timed region
(:class:`Snapshot` before and after), or summed from the migration and
schedule reports the region produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from stats import nearest_rank

STRATEGY_NAMES = ("serial", "pipelined", "watermark")

#: Every per-layer metric, in print order, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.self_s": "s",
    "sim.events": "count",
    "engine.self_s": "s",
    "engine.statements": "count",
    "engine.parse.self_s": "s",
    "engine.parse_hit_ratio": "ratio",
    "engine.bulk.self_s": "s",
    **{"engine.group_size.%s" % name: "commits"
       for name in STRATEGY_NAMES},
    "engine.aborts": "count",
    "core.middleware.self_s": "s",
    "core.middleware.submits": "count",
    "core.handover_s": "s",
    "core.verify.self_s": "s",
    **{"core.%s_s.%s" % (phase, name): "s"
       for phase in ("dump", "restore", "catchup")
       for name in STRATEGY_NAMES},
    "core.propagation.self_s": "s",
    "core.propagation.rounds": "count",
    "core.propagation.ops_replayed": "count",
    "core.propagation.max_players": "count",
    "core.pipeline.self_s": "s",
    "core.pipeline.chunks": "count",
    "core.pipeline.backpressure_wait_s": "s",
    "core.scheduler.self_s": "s",
    "core.scheduler.queue_wait_s": "s",
    "core.scheduler.max_in_flight": "count",
    "core.scheduler.retries": "count",
    "router.self_s": "s",
    "router.requests": "count",
    "router.blocked": "count",
    "router.stale_routes": "count",
    "router.park_rejects": "count",
    "router.park_timeouts": "count",
    "router.downtime_p50_s": "s",
    "router.downtime_p90_s": "s",
    "net.self_s": "s",
    "net.link_util_max": "ratio",
    "net.chunks_shipped": "count",
    "obs.self_s": "s",
    "obs.calls": "count",
    "obs.retained_samples": "count",
    "workload.self_s": "s",
    "workload.txn_p50_s": "s",
    "workload.txn_p99_s": "s",
    "workload.failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Router counters in the middleware's metrics registry.
ROUTER_COUNTERS = {
    "router.requests": "router.requests",
    "router.blocked": "router.blocked_requests",
    "router.stale_routes": "router.stale_routes",
    "router.park_rejects": "router.park_rejects",
    "router.park_timeouts": "router.park_timeouts",
}


@dataclass
class Snapshot:
    """Cumulative counters at one instant of a repetition."""

    now: float
    events: int
    aborts: int
    parse_hits: int
    parse_misses: int
    router: Dict[str, float]
    #: Busy sim seconds per network port since time 0.
    port_busy: Dict[str, float]

    @classmethod
    def take(cls, state: Any, parse: Any) -> "Snapshot":
        env, middleware = state.env, state.middleware
        cluster = middleware.cluster
        registry = middleware.metrics
        cache = parse.cache_info()
        router = {}
        for metric, name in ROUTER_COUNTERS.items():
            instrument = registry.get(name)
            router[metric] = instrument.value if instrument else 0
        return cls(
            now=env.now,
            events=env.events_processed,
            aborts=sum(node.instance.aborts
                       for node in cluster.nodes.values()),
            parse_hits=cache.hits,
            parse_misses=cache.misses,
            router=router,
            port_busy={name: port.utilisation() * env.now
                       for name, port
                       in cluster.network.link_ports().items()})


def _median_or_zero(values: List[float]) -> float:
    return nearest_rank(values, 0.5) if values else 0.0


def per_layer(ledger: Any, before: Snapshot, after: Snapshot,
              state: Any, result: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced timed region (without
    ``trace.overhead_frac``, which needs the untraced run)."""
    metrics: Dict[str, float] = {}
    for layer in ("sim", "engine", "engine.parse", "engine.bulk",
                  "core.middleware", "core.verify", "core.propagation",
                  "core.pipeline",
                  "core.scheduler", "router", "net", "obs", "workload"):
        metrics["%s.self_s" % layer] = ledger.self_s.get(layer, 0.0)
    counts = ledger.counts
    metrics["sim.events"] = after.events - before.events
    metrics["engine.statements"] = counts.get("engine.statements", 0)
    hits = after.parse_hits - before.parse_hits
    lookups = hits + after.parse_misses - before.parse_misses
    metrics["engine.parse_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["engine.aborts"] = after.aborts - before.aborts

    reports = result.migrations
    for name in STRATEGY_NAMES:
        chosen = [report for report in reports if report.strategy == name]
        flushes = sum(report.slave_flush_count for report in chosen)
        metrics["engine.group_size.%s" % name] = (
            sum(report.slave_commit_count for report in chosen) / flushes
            if flushes else 0.0)
        metrics["core.dump_s.%s" % name] = _median_or_zero(
            [report.dump_time for report in chosen])
        metrics["core.restore_s.%s" % name] = _median_or_zero(
            [report.restore_time for report in chosen])
        metrics["core.catchup_s.%s" % name] = _median_or_zero(
            [report.catchup_time for report in chosen])
    metrics["core.middleware.submits"] = counts.get(
        "core.middleware.submits", 0)
    metrics["core.handover_s"] = _median_or_zero(
        [report.switch_time for report in reports])
    metrics["core.propagation.rounds"] = sum(report.rounds
                                             for report in reports)
    metrics["core.propagation.ops_replayed"] = sum(
        report.operations_propagated for report in reports)
    metrics["core.propagation.max_players"] = max(
        report.max_concurrent_players for report in reports)
    metrics["core.pipeline.chunks"] = sum(report.chunks
                                          for report in reports)
    metrics["core.pipeline.backpressure_wait_s"] = ledger.gauge_totals.get(
        "pipeline.backpressure_wait_s", 0.0)

    schedules = result.schedules
    metrics["core.scheduler.queue_wait_s"] = sum(
        schedule.total_queue_wait for schedule in schedules)
    metrics["core.scheduler.max_in_flight"] = max(
        [schedule.max_in_flight for schedule in schedules], default=0)
    metrics["core.scheduler.retries"] = sum(
        schedule.retry_count for schedule in schedules)

    for metric in ROUTER_COUNTERS:
        metrics[metric] = after.router[metric] - before.router[metric]
    metrics["router.downtime_p50_s"] = _median_or_zero(result.downtime)
    metrics["router.downtime_p90_s"] = (
        nearest_rank(result.downtime, 0.9) if result.downtime else 0.0)

    region = after.now - before.now
    metrics["net.link_util_max"] = max(
        [(busy - before.port_busy.get(name, 0.0)) / region
         for name, busy in after.port_busy.items()], default=0.0)
    metrics["net.chunks_shipped"] = counts.get("net.chunks_shipped", 0)

    middleware = state.middleware
    retained = len(middleware.tracer.spans) + len(middleware.tracer.events)
    for name in middleware.metrics.names():
        retained += len(getattr(middleware.metrics.get(name), "samples",
                                ()))
    metrics["obs.calls"] = counts.get("obs.calls", 0)
    metrics["obs.retained_samples"] = retained
    return metrics
