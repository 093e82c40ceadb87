"""Shared experiment scaffolding: testbed assembly and run helpers.

Every experiment builds the same five-role testbed the paper used — a
master node, a destination node, the middleware, and (folded into the EB
processes) the Tomcat and load-generator tiers — then attaches TPC-W
tenants and emulated-browser populations to it.
"""

from __future__ import annotations

import itertools
import os
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Union

from ..cluster.cluster import Cluster
from ..cluster.node import NodeSpec
from ..core.middleware import (
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationReport,
)
from ..core.policy import MADEUS, PropagationPolicy
from ..core.scheduler import MigrationScheduler, ScheduleOptions
from ..engine.checkpoint import CheckpointSpec
from ..errors import CatchUpTimeout
from ..obs.export import write_trace
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..sim.core import Environment, Process
from ..sim.events import Event
from ..sim.rand import StreamFactory
from ..workload.tpcw import (
    EbConfig,
    PopulationParams,
    TenantMetrics,
    TpcwContext,
    populate,
    start_tenant_load,
)
from .profiles import Profile

#: When set, every migration run through :meth:`Testbed.migrate_async`
#: exports its trace into this directory (the CI bench-smoke artifact
#: convention; see EXPERIMENTS.md).
TRACE_DIR_ENV_VAR = "REPRO_TRACE_DIR"

#: Monotonic sequence number keeping artifact names unique per process.
_trace_sequence = itertools.count(1)


@dataclass
class Report:
    """Uniform envelope every experiment's ``run()`` returns.

    ``data`` keeps the experiment-specific result objects (points,
    timeline, cases ...) for programmatic use; ``text`` is the rendered
    human-readable report the CLI prints; ``artifacts`` lists any files
    the run exported (traces, BENCH_*.json).
    """

    experiment: str
    profile: str
    seed: int
    text: str
    data: Any = None
    artifacts: List[str] = field(default_factory=list)


def seeded(profile: Profile, seed: Optional[int]) -> Profile:
    """The profile itself, or a copy re-rooted at ``seed``."""
    if seed is None:
        return profile
    return replace(profile, seed=seed)


@dataclass
class TenantSetup:
    """One tenant's placement, database scale, and workload."""

    name: str
    node: str
    paper_ebs: int
    items: int = 100000
    #: EB count used for the *database population* (Table 3 couples DB
    #: size to an EB figure independent of the applied load).
    population_ebs: int = 100
    mix: str = "ordering"


@dataclass
class Testbed:
    """A fully assembled simulation: cluster, middleware, tenants, load."""

    env: Environment
    cluster: Cluster
    middleware: Middleware
    profile: Profile
    metrics: Dict[str, TenantMetrics] = field(default_factory=dict)
    contexts: Dict[str, TpcwContext] = field(default_factory=dict)
    #: Where :meth:`migrate_async` exports trace artifacts; ``None``
    #: falls back to the ``$REPRO_TRACE_DIR`` environment variable.
    trace_dir: Optional[str] = None

    def node(self, name: str):
        """Shorthand for a cluster node."""
        return self.cluster.node(name)

    @property
    def tracer(self) -> Tracer:
        """The middleware's span tracer (simulated-clock timestamps)."""
        return self.middleware.tracer

    @property
    def observability(self) -> MetricsRegistry:
        """The middleware's metrics registry.

        (Named ``observability`` because :attr:`metrics` already holds
        the per-tenant TPC-W load metrics.)
        """
        return self.middleware.metrics

    def export_trace(self, path: str,
                     meta: Optional[Dict[str, Any]] = None) -> int:
        """Write this testbed's trace + metrics to ``path`` (JSONL)."""
        base: Dict[str, Any] = {
            "profile": self.profile.name,
            "policy": self.middleware.config.policy.name,
            "seed": self.profile.seed,
        }
        if meta:
            base.update(meta)
        return write_trace(path, self.middleware.tracer,
                           self.middleware.metrics, base)

    def _maybe_export_trace(self, tenant: str) -> Optional[str]:
        """Export a trace artifact when a trace directory is set."""
        directory = self.trace_dir or os.environ.get(TRACE_DIR_ENV_VAR)
        if not directory:
            return None
        os.makedirs(directory, exist_ok=True)
        name = ("trace_%03d_%s_%s.jsonl"
                % (next(_trace_sequence),
                   self.middleware.config.policy.name, tenant))
        path = os.path.join(directory, name)
        self.export_trace(path, meta={"tenant": tenant})
        return path

    def run(self, until: Union[float, Event]) -> float:
        """Advance the simulation to a time, or until an event is
        processed; returns the simulated time reached."""
        return self.env.run(until=until)

    def migrate_async(self, tenant: str, destination: str,
                      options: Optional[MigrationOptions] = None
                      ) -> Process:
        """Launch a migration; returns its runner process.

        The process's value is a dict holding ``report`` (a
        :class:`~repro.core.middleware.MigrationReport`) on success or
        ``timeout`` (a :class:`~repro.errors.CatchUpTimeout`) when the
        slave diverges, plus ``trace_path`` when a trace was exported.
        Wait on it with ``testbed.run(until=runner)``.  ``options``
        defaults to the profile's transfer rates; an explicit options
        object without rates inherits them too.
        """
        if options is None:
            options = MigrationOptions(rates=self.profile.rates)
        elif options.rates is None:
            options = replace(options, rates=self.profile.rates)

        def runner() -> Generator:
            outcome: Dict[str, Any] = {}
            try:
                report = yield from self.middleware.migrate(
                    tenant, destination, options)
                outcome["report"] = report
            except CatchUpTimeout as exc:
                outcome["timeout"] = exc
            trace_path = self._maybe_export_trace(tenant)
            if trace_path is not None:
                outcome["trace_path"] = trace_path
            return outcome
        return self.env.process(runner(), name="migrate-%s" % tenant)

    def schedule_async(self, jobs: List[Any],
                       options: Optional[ScheduleOptions] = None
                       ) -> Process:
        """Launch several migrations under a :class:`MigrationScheduler`.

        ``jobs`` is a list of ``(tenant, destination)`` pairs.  Mirrors
        :meth:`migrate_async`: the returned runner process ends with
        the whole schedule, its value a dict holding ``report`` (a
        :class:`~repro.core.scheduler.ScheduleReport`); per-job errors
        live on the report's job outcomes, they never surface here.
        The schedule's default migration options inherit the profile's
        transfer rates unless overridden.
        """
        options = options or ScheduleOptions()
        migration = options.migration
        if migration is None:
            migration = MigrationOptions(rates=self.profile.rates)
        elif migration.rates is None:
            migration = replace(migration, rates=self.profile.rates)
        options = replace(options, migration=migration)
        scheduler = MigrationScheduler(self.middleware, options)
        for tenant, destination in jobs:
            scheduler.submit(tenant, destination)

        def runner() -> Generator:
            outcome: Dict[str, Any] = {}
            outcome["report"] = yield from scheduler.run()
            trace_path = self._maybe_export_trace("schedule")
            if trace_path is not None:
                outcome["trace_path"] = trace_path
            return outcome
        return self.env.process(runner(), name="schedule")


def build_testbed(profile: Profile,
                  tenants: List[TenantSetup],
                  policy: PropagationPolicy = MADEUS,
                  nodes: Optional[List[str]] = None,
                  checkpoints: bool = False,
                  validate_lsir: bool = False,
                  verify_consistency: bool = True,
                  trace_dir: Optional[str] = None) -> Testbed:
    """Assemble nodes, middleware, tenant databases, and EB load."""
    env = Environment()
    cluster = Cluster(env)
    checkpoint_spec = None
    if checkpoints:
        checkpoint_spec = CheckpointSpec(
            interval=max(5.0, profile.duration(290.0)))
    node_spec = NodeSpec(checkpoint=checkpoint_spec)
    for node_name in (nodes or ["node0", "node1"]):
        cluster.add_node(node_name, node_spec)
    middleware = Middleware(env, cluster, MiddlewareConfig(
        policy=policy,
        validate_lsir=validate_lsir,
        verify_consistency=verify_consistency,
        catchup_deadline=profile.catchup_deadline))
    for node_name in (nodes or ["node0", "node1"]):
        cluster.node(node_name).instance.bind_obs(
            middleware.metrics, tracer=middleware.tracer)
    testbed = Testbed(env, cluster, middleware, profile,
                      trace_dir=trace_dir)
    streams = StreamFactory(profile.seed)
    for setup in tenants:
        params = PopulationParams(items=setup.items,
                                  ebs=setup.population_ebs,
                                  row_scale=profile.row_scale)
        instance = cluster.node(setup.node).instance
        populate(instance, setup.name, params,
                 streams.stream("populate-%s" % setup.name))
        tenant_db = instance.tenant(setup.name)
        tenant_db.fixed_overhead_mb *= profile.size_scale
        tenant_db.size_multiplier *= profile.size_scale
        middleware.register_tenant(setup.name, setup.node)
        scaled = params.scaled_cardinalities()
        ctx = TpcwContext(customers=scaled["customer"],
                          items=scaled["item"],
                          orders=scaled["orders"])
        testbed.contexts[setup.name] = ctx
        config = EbConfig(ebs=profile.ebs(setup.paper_ebs),
                          mix=setup.mix,
                          think_time=profile.think_time,
                          cpu_scale=profile.cpu_scale)
        # zlib.crc32 is stable across processes (hash() is salted).
        testbed.metrics[setup.name] = start_tenant_load(
            env, middleware, setup.name, ctx, config,
            seed=profile.seed + zlib.crc32(setup.name.encode()) % 1000)
    return testbed
