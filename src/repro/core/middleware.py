"""The Madeus middleware: workers, router, and the migration manager.

This is the pure-middleware proxy of Figure 2.  Customers connect through
:meth:`Middleware.connect` and send statements through
:meth:`Middleware.submit`; a *worker* (Algorithm 1/2) executes inline on
the customer's connection, classifying each statement, forwarding it to
the tenant's master node, maintaining the master logical clock (MLC), and
building syncset buffers.  :meth:`Middleware.migrate` is the *manager*
(Algorithm 3), orchestrating the four migration steps with a conductor
and players (Algorithms 4/5) chosen by the propagation policy — Madeus or
any of the Table-2 baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from ..cluster.cluster import Cluster
from ..engine.dump import SchemaSpec, TransferRates, plan_chunks, schema_specs
from ..engine.session import Session, SessionResult
from ..engine.sqlmini import parse
from ..errors import (
    CatchUpTimeout,
    MigrationError,
    NetworkDown,
    RoutingError,
    SourceCrashed,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import MIGRATION, Tracer
from ..sim.events import Event
from ..sim.sync import Gate
from . import snapshot
from .operations import Operation, OpKind, TxnTracker
from .pipeline import ChangeTap
from .policy import MADEUS, PropagationPolicy
from .propagation import make_propagator
from .region import COMMIT_CLASS, FIRST_READ_CLASS, CriticalRegion
from .ssb import SyncsetBuffer, SyncsetList
from .theory import LsirValidator, states_equal
from .watermark import SnapshotStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment


@dataclass
class MiddlewareConfig:
    """Tunables of the middleware itself."""

    #: Propagation protocol (Madeus by default; see ``repro.core.policy``).
    policy: PropagationPolicy = MADEUS
    #: Record slave replay events for LSIR validation (tests; small runs).
    validate_lsir: bool = False
    #: Compare master/slave logical state at switch-over (Theorem 2).
    verify_consistency: bool = True
    #: Abort the migration if the slave has not caught up by this many
    #: simulated seconds after propagation starts (None = never).
    catchup_deadline: Optional[float] = None
    #: Drop the tenant from the source node after switch-over.
    drop_source_copy: bool = False
    #: Max resend attempts per node when the snapshot ship/restore hits a
    #: transient network outage (capped exponential backoff between them).
    ship_retry_limit: int = 5
    ship_retry_base: float = 0.1
    ship_retry_cap: float = 2.0
    #: Catch-up divergence watchdog (active only with a catchup_deadline):
    #: sample the backlog every ``divergence_interval`` seconds and abort
    #: early once it has grown strictly monotonically across
    #: ``divergence_window`` samples by at least ``divergence_min_growth``
    #: syncsets — a healthy catch-up never sustains that.
    divergence_interval: float = 5.0
    divergence_window: int = 6
    divergence_min_growth: int = 64
    #: Stream the snapshot (dump/ship/restore overlap) instead of the
    #: serial paper-faithful chain.  Per-migration override:
    #: :attr:`MigrationOptions.strategy`.
    pipeline_snapshot: bool = True
    #: Chunks the dump may run ahead of the slowest destination (also
    #: the per-destination in-flight channel capacity).
    pipeline_depth: int = 4
    #: Durable-write latency of the handover journal's ``ready`` record
    #: (the commit point of the two-step ownership switch).  The switch
    #: is only crash-atomic because this record hits stable storage
    #: before the routing entry flips, so the write costs real time.
    handover_journal_sync: float = 0.002
    #: Journal per-migration progress (frozen chunk plan, snapshot CSN,
    #: per-node installed chunks, catch-up low-water mark) so a source
    #: crash *suspends* the migration instead of aborting it, and
    #: :meth:`Middleware.resume_migration` can re-enter from the journal
    #: after the source recovers — without re-dumping what already
    #: landed.  Per-migration override: :attr:`MigrationOptions.resume`.
    resumable: bool = False


@dataclass(frozen=True)
class MigrationOptions:
    """Per-migration knobs for :meth:`Middleware.migrate`.

    Every field defaults to ``None`` ("inherit"): :meth:`resolve` fills
    it from the :class:`MiddlewareConfig` (or the library default), so a
    bare ``MigrationOptions()`` reproduces the configured behaviour and
    callers override only what they mean to change.

    The retry/backoff/resume knobs share their names with
    :class:`~repro.core.scheduler.ScheduleOptions` and
    :class:`~repro.control.RebalanceOptions`: ``retry_limit`` /
    ``retry_base`` / ``retry_cap`` bound the capped-exponential retry
    loop at each layer (here: per-node snapshot ship/restore resends),
    ``resume`` opts into journalled restart-and-resume, and
    ``strategy`` picks the snapshot path
    (:class:`~repro.core.watermark.SnapshotStrategy`) uniformly at
    every layer.
    """

    #: Dump/restore throughput model (None -> library defaults).
    rates: Optional[TransferRates] = None
    #: Extra nodes fed the snapshot + syncset stream (Section 4.2).
    standbys: Optional[Sequence[str]] = None
    #: How the initial copy is produced — a
    #: :class:`~repro.core.watermark.SnapshotStrategy` (or its string
    #: value): ``SERIAL``, ``PIPELINED``, or ``WATERMARK``.  ``None``
    #: inherits :attr:`MiddlewareConfig.pipeline_snapshot`.
    strategy: Optional[SnapshotStrategy] = None
    #: Bounded-buffer depth of the pipelined path (None -> config).
    pipeline_depth: Optional[int] = None
    #: Chunk size for the streamed dump (None -> ``rates.chunk_mb``).
    chunk_mb: Optional[float] = None
    #: Snapshot ship/restore retry policy: resend attempts per node and
    #: the capped exponential backoff between them (None -> config).
    retry_limit: Optional[int] = None
    retry_base: Optional[float] = None
    retry_cap: Optional[float] = None
    # divergence-watchdog thresholds (None -> config)
    divergence_interval: Optional[float] = None
    divergence_window: Optional[int] = None
    divergence_min_growth: Optional[int] = None
    #: Journal progress for restart-and-resume (None -> config).
    resume: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy",
                           SnapshotStrategy.coerce(self.strategy))

    def resolve(self, config: MiddlewareConfig) -> "MigrationOptions":
        """Fill every ``None`` from ``config`` / library defaults."""

        def pick(value: Any, fallback: Any) -> Any:
            return fallback if value is None else value

        return replace(
            self,
            rates=self.rates if self.rates is not None else TransferRates(),
            standbys=tuple(self.standbys or ()),
            strategy=pick(self.strategy,
                          SnapshotStrategy.PIPELINED
                          if config.pipeline_snapshot
                          else SnapshotStrategy.SERIAL),
            pipeline_depth=pick(self.pipeline_depth, config.pipeline_depth),
            retry_limit=pick(self.retry_limit, config.ship_retry_limit),
            retry_base=pick(self.retry_base, config.ship_retry_base),
            retry_cap=pick(self.retry_cap, config.ship_retry_cap),
            divergence_interval=pick(self.divergence_interval,
                                     config.divergence_interval),
            divergence_window=pick(self.divergence_window,
                                   config.divergence_window),
            divergence_min_growth=pick(self.divergence_min_growth,
                                       config.divergence_min_growth),
            resume=pick(self.resume, config.resumable),
        )


@dataclass
class TenantState:
    """Per-tenant middleware state (MLC, critical region, SSL, gate)."""

    name: str
    mlc: int = 0
    migrating: bool = False
    region: CriticalRegion = None  # type: ignore[assignment]
    ssl: SyncsetList = field(default_factory=SyncsetList)
    gate: Gate = None  # type: ignore[assignment]
    active_txns: int = 0
    drain_waiters: List[Event] = field(default_factory=list)
    propagator: Any = None
    #: Row-image change stream of a live watermark migration (commit
    #: post-images in CSN order, with lo/hi markers); ``None`` outside
    #: :data:`~repro.core.watermark.SnapshotStrategy.WATERMARK` runs.
    change_tap: Optional[ChangeTap] = None
    #: Additional slaves fed during a multi-slave migration
    #: (Section 4.2: "Madeus can propagate syncsets to multiple slaves
    #: at the same time"); node name -> (SyncsetList, propagator).
    standby_ssls: Dict[str, SyncsetList] = field(default_factory=dict)
    standby_propagators: Dict[str, Any] = field(default_factory=dict)
    failed_standbys: List[str] = field(default_factory=list)
    # statistics
    operations_seen: int = 0
    commits_seen: int = 0
    read_only_commits: int = 0
    aborts_seen: int = 0

    def all_ssls(self) -> List[SyncsetList]:
        """The primary SSL plus one per standby slave."""
        return [self.ssl] + list(self.standby_ssls.values())

    def all_propagators(self) -> List[Any]:
        """Every live propagation engine."""
        engines = [self.propagator] if self.propagator is not None else []
        engines.extend(self.standby_propagators.values())
        return engines


@dataclass
class MigrationReport:
    """Everything the experiments need to know about one migration."""

    tenant: str
    source: str
    destination: str
    policy: str
    started_at: float
    snapshot_at: float = 0.0
    restored_at: float = 0.0
    caught_up_at: float = 0.0
    switched_at: float = 0.0
    ended_at: float = 0.0
    mts: int = 0
    snapshot_size_mb: float = 0.0
    syncsets_propagated: int = 0
    operations_propagated: int = 0
    max_concurrent_players: int = 0
    rounds: int = 0
    slave_commit_count: int = 0
    slave_flush_count: int = 0
    slave_mean_group_size: float = 0.0
    consistent: Optional[bool] = None
    inconsistencies: List[str] = field(default_factory=list)
    lsir_violations: List[str] = field(default_factory=list)
    #: Multi-slave migration: per-standby-node consistency verdicts for
    #: the standbys that survived to switch-over.
    standby_consistency: Dict[str, bool] = field(default_factory=dict)
    #: Standby nodes dropped mid-migration (injected failures).
    failed_standbys: List[str] = field(default_factory=list)
    #: "ok", "aborted", or "suspended" (resumable migration parked by a
    #: source crash); non-ok migrations are reported too.
    outcome: str = "ok"
    #: Times a crashed destination was replaced by a promoted standby.
    failovers: int = 0
    #: Snapshot ship/restore resends across transient outages.
    ship_retries: int = 0
    #: Whether the snapshot was streamed (dump/ship/restore overlapped).
    pipelined: bool = False
    #: Snapshot strategy used: "serial", "pipelined", or "watermark".
    strategy: str = "serial"
    #: Chunks the streamed dump emitted (0 on the serial path).
    chunks: int = 0
    #: The master (source) node crashed at some point mid-migration.
    source_crashed: bool = False
    #: Node owning the tenant when the migration ended — the (possibly
    #: failed-over) destination on success, the source on any abort.
    owner: str = ""
    #: This report covers a journalled re-entry of an interrupted
    #: migration (see :meth:`Middleware.resume_migration`).
    resumed: bool = False
    #: Chunks the journal let this attempt skip because every
    #: destination had already installed them (0 on a fresh migration).
    chunks_skipped: int = 0

    @property
    def migration_time(self) -> float:
        """End-to-end migration duration (Figure 6's metric)."""
        return self.ended_at - self.started_at

    @property
    def dump_time(self) -> float:
        """Step 1 duration."""
        return self.snapshot_at - self.started_at

    @property
    def restore_time(self) -> float:
        """Step 2 duration."""
        return self.restored_at - self.snapshot_at

    @property
    def catchup_time(self) -> float:
        """Step 3 duration (first catch-up)."""
        return self.caught_up_at - self.restored_at

    @property
    def switch_time(self) -> float:
        """Step 4 duration (suspend, drain, switch-over, resume)."""
        return self.ended_at - self.caught_up_at


#: HandoverRecord lifecycle states.
HANDOVER_PREPARED = "prepared"
HANDOVER_READY = "ready"
HANDOVER_COMMITTED = "committed"
HANDOVER_ROLLED_BACK = "rolled-back"


@dataclass
class HandoverRecord:
    """Journal entry for the two-step atomic ownership switch (Step 4).

    The routing flip at the end of the handover phase is the only moment
    ownership changes, so a crash racing it must resolve to exactly one
    owner — never zero, never two.  The manager journals the switch:

    * ``prepared`` — handover entered; the source still owns the tenant.
    * ``ready`` — every active transaction and every propagator drained;
      the destination holds all remotely-committed state (commits link
      their SSBs into the SSL at commit time, and the drain delivered
      them), so from here the switch can only *roll forward*.
    * ``committed`` / ``rolled-back`` — resolved: routing points at the
      destination / source respectively and the record is inert.

    :meth:`Middleware.recover_routing` applies the recovery rule to an
    in-doubt record; :meth:`Middleware.owners` reads the same rule
    without mutating anything.
    """

    tenant: str
    source: str
    destination: str
    prepared_at: float
    state: str = HANDOVER_PREPARED
    resolved_at: Optional[float] = None


#: MigrationJournal lifecycle states.
JOURNAL_ACTIVE = "active"
JOURNAL_SUSPENDED = "suspended"
JOURNAL_COMPLETED = "completed"
JOURNAL_ABANDONED = "abandoned"


@dataclass
class MigrationJournal:
    """Durable per-migration progress record (the resume journal).

    Extends the two-step handover journal idea to the whole migration:
    everything :meth:`Middleware.resume_migration` needs to re-enter an
    interrupted migration without re-dumping is recorded as it happens —
    the chunk plan and snapshot CSN frozen at dump start (Step 1),
    per-node installed-chunk high-water marks (Step 2), and the catch-up
    low-water mark (syncsets replayed by stopped engines; the SSL itself
    *is* the remaining backlog).  In a real deployment this record lives
    in the middleware's stable storage next to the handover journal;
    here it is the in-memory stand-in, exactly like
    :class:`HandoverRecord`.
    """

    tenant: str
    source: str
    destination: str
    mts: int
    snapshot_csn: int
    #: Chunk plan frozen at dump start: the tenant keeps growing under
    #: load, so a resumed dump must not re-derive it — under MVCC the
    #: versions visible at ``snapshot_csn`` survive the source's
    #: crash-and-recovery, so the frozen slices stay byte-identical.
    size_mb: float
    total_chunks: int
    #: Snapshot strategy of the journalled attempt; a resume re-enters
    #: with the same strategy regardless of the options it was given.
    strategy: str = "pipelined"
    #: Watermark resume state: the ``(table, key)`` cursor after the
    #: last fully installed chunk (``None`` = walk not started, or
    #: exhausted once ``watermark_chunks > 0``) and the installed-chunk
    #: count.  The interrupted chunk itself is deliberately absent — a
    #: re-entry re-selects it from live data under a fresh watermark
    #: bracket.
    watermark_cursor: Optional[Tuple[str, Any]] = None
    watermark_chunks: int = 0
    schemas: List[SchemaSpec] = field(default_factory=list)
    state: str = JOURNAL_ACTIVE
    #: Current phase: "dump", "catch-up", "handover", or "done".
    phase: str = "dump"
    #: Per-node installed-chunk high-water marks (counts, not indexes).
    chunks_restored: Dict[str, int] = field(default_factory=dict)
    #: Per-node install log of absolute chunk indexes — the audit trail
    #: tests use to prove a resume never double-ships a chunk.  (A ship
    #: *retry* inside one attempt may legitimately repeat an index;
    #: keyed re-installs are value-idempotent.)
    chunk_log: Dict[str, List[int]] = field(default_factory=dict)
    #: Syncsets replayed by engines retired at quiesce time — the
    #: catch-up low-water mark.  An SSB is taken off the SSL when an
    #: engine claims it, so a successor engine starts strictly after
    #: these and never replays one twice.
    replayed_syncsets: int = 0
    suspended_at: Optional[float] = None
    suspend_phase: Optional[str] = None
    resumes: int = 0
    #: Live dump/ship/restore processes of the current attempt; a
    #: re-entry after a manager death interrupts any still alive so an
    #: orphaned stream cannot keep mutating the destination.
    snapshot_procs: List[Any] = field(default_factory=list)
    #: The manager process of the current attempt (None when parked).
    manager: Any = None

    def record_chunk(self, node_name: str, index: int) -> None:
        """Journal the durable install of chunk ``index`` on a node."""
        self.chunks_restored[node_name] = max(
            self.chunks_restored.get(node_name, 0), index + 1)
        self.chunk_log.setdefault(node_name, []).append(index)

    def forget_chunks(self, node_name: str) -> None:
        """The node's copy is gone: nothing of it counts as installed."""
        self.chunks_restored[node_name] = 0
        self.chunk_log.pop(node_name, None)

    def close(self, completed: bool) -> None:
        """Retire the journal: the migration completed or was given up."""
        self.state = JOURNAL_COMPLETED if completed else JOURNAL_ABANDONED
        if completed:
            self.phase = "done"
        self.manager = None

    def stop_snapshot(self, cause: str) -> None:
        """Interrupt the attempt's live dump/ship/restore processes."""
        for proc in self.snapshot_procs:
            if proc.is_alive:
                proc.interrupt(cause)
        self.snapshot_procs = []


@dataclass
class _MigrationRun:
    """Mutable context threaded through the migration phase helpers.

    :meth:`Middleware.migrate` and :meth:`Middleware.resume_migration`
    build one and hand it through :meth:`Middleware._snapshot_phase` ->
    :meth:`Middleware._catchup_phase` ->
    :meth:`Middleware._handover_phase`; a destination failover mutates
    ``destination`` / ``dest_instance`` in place.
    """

    tenant: str
    state: TenantState
    opts: MigrationOptions
    report: MigrationReport
    migration_span: Any
    source_instance: Any
    dest_instance: Any
    destination: str
    standby_instances: Dict[str, Any]
    source_down: Event
    snapshot_csn: int
    journal: Optional[MigrationJournal] = None
    resume: bool = False
    #: Per-slave WAL baselines captured at catch-up start.
    wal_before: Dict[str, Any] = field(default_factory=dict)

    def targets(self) -> List[Tuple[str, Any]]:
        """``(node, instance)`` of the destination, then each standby."""
        return [(self.destination, self.dest_instance),
                *self.standby_instances.items()]


class Connection:
    """One customer connection proxied by the middleware."""

    def __init__(self, middleware: "Middleware", tenant: str):
        self.middleware = middleware
        self.tenant = tenant
        self.tracker = TxnTracker()
        self.ssb: Optional[SyncsetBuffer] = None
        self.in_active_txn = False
        self._node_name: Optional[str] = None
        self._session: Optional[Session] = None
        # statistics
        self.statements = 0
        self.errors = 0

    def session(self) -> Session:
        """The master-side session, re-bound after switch-over."""
        node_name = self.middleware.route(self.tenant)
        if self._session is None or self._node_name != node_name:
            instance = self.middleware.cluster.node(node_name).instance
            self._session = Session(instance, self.tenant)
            self._node_name = node_name
        return self._session


class Middleware:
    """A pure-middleware database proxy with live migration."""

    def __init__(self, env: "Environment", cluster: Cluster,
                 config: Optional[MiddlewareConfig] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.env = env
        self.cluster = cluster
        self.config = config or MiddlewareConfig()
        #: Span/event recorder on the simulated clock; every migration
        #: emits phase spans (dump -> restore -> catch-up -> handover).
        self.tracer = tracer if tracer is not None else Tracer(env)
        #: Structured counters/gauges/histograms for the whole stack.
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry())
        self.cluster.network.bind_obs(self.metrics)
        self._tenants: Dict[str, TenantState] = {}
        self._routes: Dict[str, str] = {}
        #: Two-step ownership-switch journal, one record per tenant for
        #: the most recent handover (see :class:`HandoverRecord`).
        self._handovers: Dict[str, HandoverRecord] = {}
        #: Per-migration resume journal, one record per tenant for the
        #: most recent resumable migration (see :class:`MigrationJournal`).
        self._journals: Dict[str, MigrationJournal] = {}
        self.validator: Optional[LsirValidator] = (
            LsirValidator() if self.config.validate_lsir else None)
        self.reports: List[MigrationReport] = []

    # ------------------------------------------------------------------
    # tenant management / routing
    # ------------------------------------------------------------------
    def register_tenant(self, tenant: str, node_name: str) -> TenantState:
        """Register a tenant hosted on ``node_name``."""
        if tenant in self._tenants:
            raise RoutingError("tenant %r already registered" % tenant)
        self.cluster.node(node_name)  # validate
        state = TenantState(tenant)
        state.region = CriticalRegion(self.env, "region.%s" % tenant)
        state.gate = Gate(self.env, is_open=True)
        self._tenants[tenant] = state
        self._routes[tenant] = node_name
        return state

    def route(self, tenant: str) -> str:
        """Current master node of a tenant."""
        node = self._routes.get(tenant)
        if node is None:
            raise RoutingError("tenant %r is not registered" % tenant)
        return node

    def tenants(self) -> List[str]:
        """Every registered tenant name, sorted."""
        return sorted(self._tenants)

    def publish_load_gauges(self, since: float = 0.0) -> None:
        """Mirror per-tenant and per-link load into the registry.

        The worker path keeps its counters as plain attributes on
        :class:`TenantState` (the hot path must not pay a registry
        lookup per statement); this publishes them as
        ``tenant.<name>.operations`` / ``.commits`` / ``.aborts``
        gauges, plus ``net.link.<port>.utilisation`` (the busy fraction
        of every materialised :class:`~repro.net.network.LinkPort`
        since ``since``), so the control plane and library users read
        load exclusively through the stable
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` /
        ``gauge_value`` API.  Sampling loops (the LoadWatcher) call
        this once per tick, off the hot path.
        """
        for name in sorted(self._tenants):
            state = self._tenants[name]
            prefix = "tenant.%s" % name
            self.metrics.gauge("%s.operations" % prefix).set(
                state.operations_seen)
            self.metrics.gauge("%s.commits" % prefix).set(
                state.commits_seen)
            self.metrics.gauge("%s.aborts" % prefix).set(
                state.aborts_seen)
        network = self.cluster.network
        for port_name, port in sorted(network.link_ports().items()):
            self.metrics.gauge("net.link.%s.utilisation"
                               % port_name).set(
                port.utilisation(since=since))

    def owners(self, tenant: str) -> List[str]:
        """The node(s) that own ``tenant`` — by design exactly one.

        Outside a handover (or once the journal record resolved) this is
        the routing entry.  With an in-doubt :class:`HandoverRecord` the
        recovery rule applies without mutating anything: ``prepared``
        rolls back (source owns), ``ready`` rolls forward (destination
        owns — it already holds every remotely-committed transaction).
        A list so tests can assert ``len(owners(t)) == 1`` as the
        exactly-one-owner invariant rather than trusting the type.
        """
        route = self.route(tenant)
        record = self._handovers.get(tenant)
        if record is None or record.state in (HANDOVER_COMMITTED,
                                              HANDOVER_ROLLED_BACK):
            return [route]
        if record.state == HANDOVER_READY:
            return [record.destination]
        return [record.source]

    def recover_routing(self, tenant: str) -> str:
        """Resolve an in-doubt handover after a crash; return the owner.

        Applies the :class:`HandoverRecord` recovery rule *with* side
        effects: a ``ready`` record commits (the destination drained
        every remotely-committed transaction before the record was
        marked ready, so rolling forward loses nothing), a ``prepared``
        record rolls back to the source.  Either way the tenant's
        migration scaffolding is torn down and the gate reopens, so the
        single surviving owner serves reads and writes again.
        """
        state = self.tenant_state(tenant)
        record = self._handovers.get(tenant)
        if record is not None and record.state == HANDOVER_READY:
            self._commit_handover(record, recovered=True)
        elif record is not None and record.state == HANDOVER_PREPARED:
            self._rollback_handover(record, reason="crash_recovery")
        journal = self._journals.get(tenant)
        if journal is not None and journal.state in (JOURNAL_ACTIVE,
                                                     JOURNAL_SUSPENDED):
            # Recovery forfeits the resume: a rolled-forward handover
            # completes the journal, anything else abandons it.  Orphan
            # dump/restore streams are silenced either way.
            journal.close(completed=self.route(tenant) == journal.destination)
            journal.stop_snapshot("routing recovered")
        self._tear_down_migration(state, phase="recovery",
                                  reason="handover recovery")
        state.gate.open()
        return self.owners(tenant)[0]

    def migration_journal(self, tenant: str) -> Optional[MigrationJournal]:
        """The most recent resume journal of ``tenant`` (or ``None``)."""
        return self._journals.get(tenant)

    def tenant_state(self, tenant: str) -> TenantState:
        """Middleware-side state of a tenant."""
        state = self._tenants.get(tenant)
        if state is None:
            raise RoutingError("tenant %r is not registered" % tenant)
        return state

    def connect(self, tenant: str) -> Connection:
        """Open a customer connection to a tenant."""
        self.tenant_state(tenant)  # validate
        return Connection(self, tenant)

    def disconnect(self, conn: Connection) -> None:
        """Abandon a connection whose customer side went away.

        The server-side unwind a real DBMS performs when it loses the
        client socket: any in-flight transaction is rolled back and the
        gate slot it held is released, so an abandoned connection (a
        router shard crashing mid-transaction, a client process dying)
        can never wedge a handover drain.  Idempotent.
        """
        state = self.tenant_state(conn.tenant)
        self._connection_lost(conn, state)

    def draining(self, tenant: str) -> bool:
        """Whether ``tenant``'s gate is closed (handover in progress).

        The router tier consults this before admitting a new
        transaction: a draining tenant's BEGINs are parked router-side
        in a bounded queue instead of piling onto the middleware gate.
        """
        return not self.tenant_state(tenant).gate.is_open

    # ------------------------------------------------------------------
    # the worker (Algorithms 1 and 2), inline on the customer connection
    # ------------------------------------------------------------------
    def submit(self, conn: Connection, sql: str,
               cpu_cost: Optional[float] = None
               ) -> Generator[Any, Any, SessionResult]:
        """Proxy one customer statement to the tenant's master.

        The customer -> middleware and middleware -> master hops each pay
        one network round trip; the worker logic itself is free (the
        paper measured the middleware node as ~100% idle).
        """
        state = self.tenant_state(conn.tenant)
        was_update = conn.tracker.is_update
        operation = conn.tracker.classify(parse(sql), sql, cpu_cost)
        conn.statements += 1
        state.operations_seen += 1
        # customer -> middleware hop
        try:
            yield from self.cluster.network.round_trip()
        except NetworkDown as exc:
            conn.errors += 1
            self._connection_lost(conn, state)
            return SessionResult(kind="error", error=str(exc))
        if operation.kind == OpKind.BEGIN:
            # Suspended during switch-over: new transactions wait at the
            # gate; running ones drain (Algorithm 3 lines 14-17).
            yield state.gate.wait()
            state.active_txns += 1
            conn.in_active_txn = True
            result = yield from self._forward(conn, operation)
            if not result.ok:
                # The master refused/never saw the BEGIN (crash, outage):
                # release the gate slot instead of leaking active_txns.
                self._transaction_ended(conn, state, aborted=True)
            return result
        if operation.kind == OpKind.FIRST_READ:
            result = yield from self._first_read(conn, state, operation)
        elif operation.kind == OpKind.WRITE:
            result = yield from self._write(conn, state, operation)
        elif operation.kind == OpKind.COMMIT:
            result = yield from self._commit(conn, state, operation,
                                             was_update)
        elif operation.kind == OpKind.ABORT:
            result = yield from self._abort(conn, state, operation)
        else:  # plain read
            result = yield from self._read(conn, state, operation)
        if not result.ok:
            conn.errors += 1
        return result

    def _forward(self, conn: Connection, operation: Operation
                 ) -> Generator[Any, Any, SessionResult]:
        """middleware -> master round trip plus execution.

        A link outage surfaces as an error result, like a proxy
        returning 503; the master-side transaction (which never saw the
        statement) is rolled back, as a real server does when it loses
        the client connection.
        """
        try:
            yield from self.cluster.network.round_trip()
        except NetworkDown as exc:
            session = conn._session
            if session is not None and session.in_transaction:
                session.reset()
            return SessionResult(kind="error", error=str(exc))
        result = yield from conn.session().execute(operation.statement,
                                                   cpu_cost=operation.cpu_cost)
        return result

    def _first_read(self, conn: Connection, state: TenantState,
                    operation: Operation
                    ) -> Generator[Any, Any, SessionResult]:
        """Algorithm 1 lines 1-10: execute, tag STS, allocate the SSB."""
        yield from state.region.enter(FIRST_READ_CLASS)
        try:
            result = yield from self._forward(conn, operation)
            if result.ok:
                ssb = SyncsetBuffer(sts=state.mlc,
                                    txn_label=operation.txn_label)
                ssb.save(operation)
                conn.ssb = ssb
                for ssl in state.all_ssls():
                    ssl.register_open(ssb)
            else:
                self._transaction_ended(conn, state, aborted=True)
        finally:
            state.region.leave()
        return result

    def _write(self, conn: Connection, state: TenantState,
               operation: Operation
               ) -> Generator[Any, Any, SessionResult]:
        """Algorithm 1 lines 11-15: execute, then save to the SSB."""
        result = yield from self._forward(conn, operation)
        if result.ok:
            if conn.ssb is not None:
                conn.ssb.save(operation)
        else:
            # Engine-initiated abort (first-updater-wins): the master
            # already rolled the transaction back; discard the SSB.
            self._transaction_ended(conn, state, aborted=True)
        return result

    def _read(self, conn: Connection, state: TenantState,
              operation: Operation
              ) -> Generator[Any, Any, SessionResult]:
        """Algorithm 1 lines 30-33 / Algorithm 2: forward, maybe save.

        The minimum-set policies discard non-first reads; B-ALL keeps
        them so the slave can replay entire transactions.
        """
        result = yield from self._forward(conn, operation)
        if result.ok:
            if not self.config.policy.minimum_set and conn.ssb is not None:
                conn.ssb.save(operation)
        else:
            self._transaction_ended(conn, state, aborted=True)
        return result

    def _commit(self, conn: Connection, state: TenantState,
                operation: Operation, was_update: bool
                ) -> Generator[Any, Any, SessionResult]:
        """Algorithm 1 lines 16-29: execute, tag ETS, bump MLC, link."""
        if not was_update:
            # Read-only commit: no snapshot state changes, no MLC bump,
            # no critical region (Algorithm 2), and nothing to replay —
            # the mapping function maps it to the empty set under every
            # policy (a read-only transaction changes no data).
            result = yield from self._forward(conn, operation)
            if result.ok:
                state.commits_seen += 1
                state.read_only_commits += 1
            self._transaction_ended(conn, state,
                                    aborted=not result.ok)
            return result
        yield from state.region.enter(COMMIT_CLASS)
        # Capture the row post-images *before* forwarding: the session
        # drops its Transaction the instant the engine commit returns.
        session = conn._session
        txn = session.txn if session is not None else None
        try:
            result = yield from self._forward(conn, operation)
            if result.ok:
                state.commits_seen += 1
                if (state.migrating and state.change_tap is not None
                        and txn is not None and txn.write_order):
                    state.change_tap.append_txn(
                        [(table_name, key,
                          dict(txn.writes[(table_name, key)])
                          if txn.writes[(table_name, key)] is not None
                          else None)
                         for table_name, key in txn.write_order])
                ssb = conn.ssb
                if ssb is not None:
                    ssb.ets = state.mlc
                    ssb.save(operation)
                state.mlc += 1
                if ssb is not None:
                    conn.ssb = None
                    for ssl in state.all_ssls():
                        ssl.resolve_open(ssb)
                        # Under a watermark migration the change tap is
                        # the replication stream; linking SSBs too would
                        # leak an undrained SSL backlog.
                        if state.migrating and state.change_tap is None:
                            ssl.link(ssb, self.env.now)
                    for propagator in state.all_propagators():
                        if state.migrating:
                            propagator.notify_linked()
                        propagator.notify_open_changed()
                self._transaction_closed(conn, state)
            else:
                self._transaction_ended(conn, state, aborted=True)
        finally:
            state.region.leave()
        return result

    def _abort(self, conn: Connection, state: TenantState,
               operation: Operation
               ) -> Generator[Any, Any, SessionResult]:
        """Client rollback: forward and discard the SSB."""
        result = yield from self._forward(conn, operation)
        self._transaction_ended(conn, state, aborted=True)
        return result

    # ------------------------------------------------------------------
    def _transaction_ended(self, conn: Connection, state: TenantState,
                           aborted: bool) -> None:
        """Discard the SSB (mapping function: aborted/failed -> empty)."""
        if conn.ssb is not None:
            for ssl in state.all_ssls():
                ssl.resolve_open(conn.ssb)
            conn.ssb = None
            for propagator in state.all_propagators():
                propagator.notify_open_changed()
        if aborted:
            state.aborts_seen += 1
            # the engine already rolled back; re-sync the tracker
            if conn.tracker.in_txn:
                conn.tracker.reset()
        self._transaction_closed(conn, state)

    def _connection_lost(self, conn: Connection,
                         state: TenantState) -> None:
        """Unwind one connection whose customer hop hit an outage."""
        session = conn._session
        if session is not None and session.in_transaction:
            session.reset()
        self._transaction_ended(conn, state, aborted=True)

    def _transaction_closed(self, conn: Connection,
                            state: TenantState) -> None:
        if not conn.in_active_txn:
            return
        conn.in_active_txn = False
        if state.active_txns > 0:
            state.active_txns -= 1
        if state.active_txns == 0 and not state.gate.is_open:
            waiters, state.drain_waiters = state.drain_waiters, []
            for event in waiters:
                event.succeed()

    # ------------------------------------------------------------------
    # the manager (Algorithm 3): four-step live migration
    # ------------------------------------------------------------------
    def migrate(self, tenant: str, destination: str,
                options: Optional[MigrationOptions] = None
                ) -> Generator[Any, Any, MigrationReport]:
        """Live-migrate ``tenant`` to node ``destination``.

        Steps: (1) snapshot the master inside the critical region so the
        MTS is a clean commit boundary; (2) ship + restore on the
        destination — streamed in overlapping chunks by default, or the
        serial paper-faithful chain with
        ``MigrationOptions(strategy=SnapshotStrategy.SERIAL)``; (3)
        propagate syncsets
        under the configured policy until caught up; (4) suspend new
        transactions, drain, switch over, resume.

        All per-migration knobs live on :class:`MigrationOptions`;
        ``options.standbys`` names additional nodes that receive the
        snapshot and the same syncset stream concurrently (Section 4.2)
        — they end up as consistent warm replicas, and a standby that
        fails mid-migration is dropped without stopping the migration.

        .. versionchanged::
           The deprecated positional-``TransferRates`` and ``rates=`` /
           ``standbys=`` call shapes were removed after one release
           cycle; :class:`MigrationOptions` is the only way to pass
           per-migration knobs.
        """
        if options is not None and not isinstance(options,
                                                  MigrationOptions):
            raise TypeError(
                "migrate() takes a MigrationOptions instance, got %r; "
                "the old rates/standbys call shapes were removed"
                % (type(options).__name__,))
        opts = (options or MigrationOptions()).resolve(self.config)
        path = snapshot.path_for(opts.strategy)
        standbys = list(opts.standbys)
        state = self.tenant_state(tenant)
        if state.migrating:
            raise MigrationError("tenant %r is already migrating" % tenant)
        source = self.route(tenant)
        for node_name in [destination] + standbys:
            if source == node_name:
                raise MigrationError("tenant %r is already on %s"
                                     % (tenant, node_name))
        if destination in standbys:
            raise MigrationError("destination cannot also be a standby")
        source_instance = self.cluster.node(source).instance
        dest_instance = self.cluster.node(destination).instance
        standby_instances = {name: self.cluster.node(name).instance
                             for name in standbys}
        # A copy already on a target (a source copy an earlier move kept,
        # a former standby) is stale; only a resumed migration reuses
        # its own journalled partial copy.
        for instance in [dest_instance, *standby_instances.values()]:
            if instance.has_tenant(tenant):
                instance.drop_tenant(tenant)
        # Supervise the master for the whole migration: a source crash
        # must abort (Section 4.2) even in phases where nothing else
        # would notice — the middleware buffers the syncsets, so replay
        # could quietly finish against a dead master.
        source_down = source_instance.wait_crashed()
        report = MigrationReport(tenant, source, destination,
                                 self.config.policy.name,
                                 started_at=self.env.now,
                                 pipelined=path.pipelined,
                                 strategy=opts.strategy.value)
        migration_span = self.tracer.start(
            "migration", kind=MIGRATION, tenant=tenant, source=source,
            destination=destination, policy=self.config.policy.name,
            standbys=len(standbys), pipelined=path.overlapped,
            strategy=opts.strategy.value)
        # --- Step 1: snapshot at a commit boundary --------------------
        phase_span = self.tracer.phase("dump", parent=migration_span,
                                       pipelined=path.overlapped,
                                       strategy=opts.strategy.value)
        yield from state.region.enter(FIRST_READ_CLASS)
        report.mts = state.mlc
        snapshot_csn = source_instance.current_csn()
        state.migrating = True  # commits from here on link their SSBs
        # A watermark migration's change tap is opened inside the
        # critical region so no commit slips between it and the SSL.
        state.change_tap = path.open_tap(self.env, tenant)
        state.region.leave()
        run = _MigrationRun(
            tenant=tenant, state=state, opts=opts, report=report,
            migration_span=migration_span,
            source_instance=source_instance, dest_instance=dest_instance,
            destination=destination, standby_instances=standby_instances,
            source_down=source_down, snapshot_csn=snapshot_csn)
        if opts.resume:
            run.journal = self._open_journal(run)
        yield from self._snapshot_phase(run, phase_span)
        yield from self._catchup_phase(run)
        return (yield from self._handover_phase(run))

    def _open_journal(self, run: _MigrationRun) -> MigrationJournal:
        """Journal a fresh migration's immutable facts and chunk plan."""
        tenant_db = run.source_instance.tenant(run.tenant)
        size_mb = tenant_db.size_mb()
        journal = MigrationJournal(
            tenant=run.tenant, source=run.report.source,
            destination=run.destination, mts=run.report.mts,
            snapshot_csn=run.snapshot_csn, size_mb=size_mb,
            total_chunks=plan_chunks(size_mb, snapshot.chunk_cap(run.opts)),
            strategy=run.opts.strategy.value,
            schemas=schema_specs(tenant_db))
        journal.manager = self.env.active_process
        self._journals[run.tenant] = journal
        return journal

    # ------------------------------------------------------------------
    # migration phases (shared by migrate() and resume_migration())
    # ------------------------------------------------------------------
    def _snapshot_phase(self, run: _MigrationRun,
                        phase_span: Any) -> Generator[Any, Any, None]:
        """Steps 1 (dump) + 2 (restore) against every destination node.

        ``phase_span`` is the already-open ``dump`` span.  On return the
        (possibly failed-over) destination holds the full snapshot and
        ``report.restored_at`` is stamped; a source crash raises
        :class:`SourceCrashed` (suspending first when journalled).
        """
        state, report = run.state, run.report
        restore_errors: snapshot.RestoreErrors = {}
        phase_span = yield from snapshot.path_for(run.opts.strategy).copy(
            self, run, phase_span, restore_errors)
        if run.source_instance.crashed:
            # The master died while the slaves restored (the serial path
            # restores from an already-materialised snapshot, so nothing
            # in the pipeline notices).  Whatever landed is abandoned.
            self._abort_source_crash(run, phase_span, phase="restore")
        # A standby that failed to restore is discarded (Section 4.2); a
        # dead destination promotes a restored standby or aborts.
        for name in sorted(run.standby_instances):
            error = restore_errors.get(name)
            if error is not None:
                run.standby_instances.pop(name)
                self._drop_standby(state, name, phase="restore",
                                   reason=error)
        dest_error = restore_errors.get(run.destination)
        if dest_error is not None:
            if not run.standby_instances:
                self._abort_migration(run, phase_span, "restore_failed",
                                      outcome="failed")
                raise MigrationError(
                    "restore on destination %s failed (%s) and no "
                    "standby survives to take over"
                    % (run.destination, dest_error))
            self._promote_standby(run, phase="restore", reason=dest_error)
        if run.journal is not None:
            run.journal.snapshot_procs = []
        report.restored_at = self.env.now
        self.tracer.finish(phase_span, retries=report.ship_retries)

    @staticmethod
    def _replication_backlog(state: TenantState) -> int:
        """Pending replication units: tap records under a watermark
        migration (the SSL stays empty there), linked SSBs otherwise."""
        if state.change_tap is not None:
            return state.change_tap.pending_count()
        return state.ssl.pending_count()

    def _catchup_phase(self, run: _MigrationRun
                       ) -> Generator[Any, Any, None]:
        """Step 3: concurrent syncset propagation until caught up."""
        state, opts, report = run.state, run.opts, run.report
        tenant = run.tenant
        if run.journal is not None:
            run.journal.phase = "catch-up"
        phase_span = self.tracer.phase(
            "catch-up", parent=run.migration_span,
            backlog=self._replication_backlog(state))
        adopted = state.propagator is not None
        if adopted:
            # Keep an engine that is already replaying toward the
            # destination rather than racing a successor against its
            # claimed work: the watermark applier spun up during the
            # snapshot walk, and a resumed migration's parked engine
            # kept draining while the journal was suspended.
            propagator = state.propagator
        else:
            propagator = make_propagator(self.env, state.ssl,
                                         run.dest_instance, tenant,
                                         self.cluster.network,
                                         self.config.policy,
                                         self.validator,
                                         tracer=self.tracer,
                                         metrics=self.metrics)
            state.propagator = propagator
        for name, instance in run.standby_instances.items():
            if name in state.standby_propagators:
                # Watermark standby appliers were adopted during the
                # snapshot walk; they keep consuming their tap cursors.
                continue
            standby_ssl = SyncsetList()
            standby_ssl.adopt_opens(state.ssl)
            standby_ssl.adopt_backlog(state.ssl)
            standby_prop = make_propagator(
                self.env, standby_ssl, instance, tenant,
                self.cluster.network, self.config.policy,
                metrics=self.metrics,
                metrics_prefix="propagation.standby.%s" % name)
            state.standby_ssls[name] = standby_ssl
            state.standby_propagators[name] = standby_prop
            standby_prop.start()
        # Per-slave WAL baselines, recorded up front so a standby
        # promoted mid-catch-up still reports correct deltas.
        run.wal_before = {name: (instance.wal.flush_count,
                                 instance.wal.commit_count)
                          for name, instance in run.targets()}
        if not adopted:
            propagator.start()
        deadline_event = None
        diverging: Optional[Event] = None
        watchdog_control = {"stop": False}
        if self.config.catchup_deadline is not None:
            deadline_event = self.env.timeout(self.config.catchup_deadline)
            diverging = Event(self.env)
            self.env.process(
                self._divergence_watchdog(state, diverging,
                                          watchdog_control, opts),
                name="catchup.watchdog.%s" % tenant)
        # Supervision loop: wait for catch-up while reacting to slave
        # faults.  A dead standby is discarded and propagation continues
        # (Section 4.2); a dead destination promotes a surviving standby
        # or aborts; the deadline / divergence watchdog abort early.
        while True:
            caught_up = state.propagator.wait_caught_up()
            primary_failed = state.propagator.wait_failed()
            standby_failed = {
                name: prop.wait_failed()
                for name, prop in state.standby_propagators.items()}
            waits = [caught_up, run.source_down, primary_failed]
            waits.extend(standby_failed.values())
            if deadline_event is not None:
                waits.append(deadline_event)
            if diverging is not None:
                waits.append(diverging)
            fired = yield self.env.any_of(waits)
            if fired is caught_up:
                break
            if fired is run.source_down:
                watchdog_control["stop"] = True
                self._abort_source_crash(run, phase_span, phase="catch-up")
            dropped = None
            for name, event in standby_failed.items():
                if fired is event:
                    dropped = name
                    break
            if dropped is not None:
                reason = (state.standby_propagators[dropped].failed
                          or "replay failed")
                self._drop_standby(state, dropped, phase="catch-up",
                                   reason=reason)
                run.standby_instances.pop(dropped, None)
                continue
            if fired is primary_failed:
                reason = state.propagator.failed or "replay failed"
                if run.standby_instances:
                    self._promote_standby(run, phase="catch-up",
                                          reason=reason)
                    continue
                abort_reason = "destination_failed"
            elif diverging is not None and fired is diverging:
                abort_reason = "diverging"
            else:
                abort_reason = "timeout"
            # --- abort: tear down, report, raise -----------------------
            watchdog_control["stop"] = True
            backlog = self._replication_backlog(state)
            elapsed = self.env.now - report.restored_at
            self._abort_migration(run, phase_span, abort_reason,
                                  outcome=abort_reason,
                                  backlog_at_timeout=backlog)
            if abort_reason == "destination_failed":
                raise MigrationError(
                    "destination %s failed during catch-up (%s) and no "
                    "standby survives to take over"
                    % (run.destination, reason))
            if abort_reason == "diverging":
                raise CatchUpTimeout(
                    "%s: slave backlog is diverging (%d syncsets and "
                    "strictly growing); aborting ahead of the %.0f s "
                    "deadline"
                    % (self.config.policy.name, backlog,
                       self.config.catchup_deadline),
                    backlog=backlog, elapsed=elapsed, reason="diverging")
            raise CatchUpTimeout(
                "%s: slave could not catch up with the master within "
                "%.0f s (backlog: %d syncsets)"
                % (self.config.policy.name,
                   self.config.catchup_deadline, backlog),
                backlog=backlog, elapsed=elapsed)
        watchdog_control["stop"] = True
        report.caught_up_at = self.env.now
        self.tracer.finish(
            phase_span, rounds=state.propagator.stats.rounds,
            syncsets=state.propagator.stats.syncsets_replayed)

    def _handover_phase(self, run: _MigrationRun
                        ) -> Generator[Any, Any, MigrationReport]:
        """Step 4: suspend, drain, switch over, resume.

        The ownership switch is journalled as a two-step prepare /
        commit (see :class:`HandoverRecord`): a crash racing this phase
        — the source dying mid-drain, or the manager itself dying
        before the routing flip — always recovers to exactly one owner.
        Once the record is ``ready`` the destination holds every
        remotely-committed transaction, so even a source crash from
        here on rolls *forward* instead of aborting.
        """
        state, report = run.state, run.report
        tenant = run.tenant
        if run.journal is not None:
            run.journal.phase = "handover"
        phase_span = self.tracer.phase("handover",
                                       parent=run.migration_span)
        record = self._prepare_handover(tenant, report.source,
                                        run.destination)
        state.gate.close()
        if state.active_txns > 0:
            drained = Event(self.env)
            state.drain_waiters.append(drained)
            yield drained
        drain_events = []
        for engine in state.all_propagators():
            engine.request_stop()
            drain_events.append(engine.wait_fully_drained())
        yield self.env.all_of(drain_events)
        self._mark_handover_ready(record)
        # Persist the ready record before flipping the route: this is
        # the commit point, and the window it opens (a crash here rolls
        # *forward*) is exactly what the recovery rule resolves.
        yield self.env.timeout(self.config.handover_journal_sync)
        report.switched_at = self.env.now
        self.tracer.event("migration.switched", tenant=tenant,
                          destination=run.destination)
        if self.config.verify_consistency:
            equal, differences = states_equal(
                run.source_instance.tenant(tenant),
                run.dest_instance.tenant(tenant))
            report.consistent = equal
            report.inconsistencies = differences
            for name in list(state.standby_propagators):
                standby_equal, _diffs = states_equal(
                    run.source_instance.tenant(tenant),
                    run.standby_instances[name].tenant(tenant))
                report.standby_consistency[name] = standby_equal
        self._commit_handover(record)
        state.migrating = False
        propagator = state.propagator
        state.propagator = None
        state.change_tap = None
        state.standby_ssls.clear()
        state.standby_propagators.clear()
        if self.config.drop_source_copy:
            run.source_instance.drop_tenant(tenant)
        state.gate.open()
        self._close_report(state, report, "ok", run.destination)
        stats = propagator.stats
        report.syncsets_propagated = stats.syncsets_replayed
        report.operations_propagated = stats.operations_replayed
        report.max_concurrent_players = stats.max_concurrent_players
        report.rounds = stats.rounds
        flushes_before, commits_before = run.wal_before[run.destination]
        report.slave_commit_count = (run.dest_instance.wal.commit_count
                                     - commits_before)
        report.slave_flush_count = (run.dest_instance.wal.flush_count
                                    - flushes_before)
        if report.slave_flush_count:
            report.slave_mean_group_size = (report.slave_commit_count
                                            / report.slave_flush_count)
        if self.validator is not None:
            report.lsir_violations = self.validator.violations()
        report.source_crashed = run.source_instance.crashed
        if run.journal is not None:
            run.journal.close(completed=True)
        self.tracer.finish(phase_span)
        self.tracer.finish(
            run.migration_span, outcome="ok", owner=run.destination,
            source_crashed=report.source_crashed,
            rounds=report.rounds,
            max_concurrent_players=report.max_concurrent_players,
            syncsets=report.syncsets_propagated,
            slave_commit_count=report.slave_commit_count,
            slave_flush_count=report.slave_flush_count,
            consistent=report.consistent,
            failovers=report.failovers,
            standby_dropped=len(report.failed_standbys),
            resumed=report.resumed)
        self._publish_report_metrics(report, stats)
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # suspend / resume (journalled re-entry after a source crash)
    # ------------------------------------------------------------------
    def _suspend_migration(self, state: TenantState,
                           journal: MigrationJournal,
                           report: MigrationReport, phase: str) -> None:
        """Park a journalled migration instead of aborting it.

        The destination keeps its partial copy and the SSL keeps the
        backlog — ``state.migrating`` stays True so commits on the
        recovered source keep linking their SSBs, which is exactly what
        lets :meth:`resume_migration` catch up instead of re-dumping.
        The primary propagation engine is deliberately left attached
        and running: the *source* crashed, not the middleware, so the
        engine keeps draining the backlog toward the destination while
        the migration is parked, and the resume adopts it.  (Standbys
        are discarded — the resumed attempt re-runs without them.)
        """
        journal.state = JOURNAL_SUSPENDED
        journal.suspend_phase = phase
        journal.suspended_at = self.env.now
        journal.manager = None
        journal.stop_snapshot("migration suspended")
        for name in sorted(state.standby_propagators):
            self._drop_standby(state, name, phase=phase,
                               reason="migration suspended")
        record = self._handovers.get(state.name)
        if record is not None and record.state == HANDOVER_PREPARED:
            self._rollback_handover(record, reason="migration suspended")
        state.gate.open()
        self._close_report(state, report, "suspended", report.source)
        self.metrics.counter("migration.suspended").inc()
        self.tracer.event("migration.suspended", tenant=state.name,
                          phase=phase, resumes=journal.resumes,
                          chunks_restored=dict(journal.chunks_restored))
        self.reports.append(report)

    def _quiesce_for_resume(self, state: TenantState,
                            journal: MigrationJournal,
                            path: snapshot.SnapshotPath, span: Any
                            ) -> Generator[Any, Any, None]:
        """Silence every leftover of the interrupted attempt.

        Idempotent from any journal offset: orphan dump/restore streams
        are interrupted and leftover standbys are dropped.  A healthy
        primary engine is *kept* — it holds SSBs it already claimed off
        the SSL, so the safe continuations are exactly two: adopt it
        (catch-up reuses it) or wait out its drain.  An engine caught
        mid-stop (the previous attempt died inside the handover drain)
        is drained here and retired into the journal's catch-up
        low-water mark; a *failed* engine makes the journal unsafe —
        its claimed SSBs died unreplayed, so the destination is
        incomplete in a way no journal offset records — and the resume
        abandons instead.
        """
        journal.stop_snapshot("migration resumed")
        for name in sorted(state.standby_propagators):
            self._drop_standby(state, name, phase="resume",
                               reason="migration resumed")
        reason = path.quiesce(self, state, journal)
        if reason is not None:
            self._abandon_resume(state, journal, span, reason)
        engine = state.propagator
        if engine is not None:
            if engine.failed is not None:
                state.propagator = None
                self._abandon_resume(
                    state, journal, span,
                    "propagation failed while the migration was parked "
                    "(%s); the destination copy is unrecoverable"
                    % (engine.failed,))
            if engine._stop_requested:
                # The previous attempt died inside the handover drain.
                # Wait the drain out (the gate is still closed, so the
                # backlog is bounded) and retire the engine.
                if engine.process is not None and engine.process.is_alive:
                    yield engine.wait_fully_drained()
                journal.replayed_syncsets += (
                    engine.stats.syncsets_replayed)
                state.propagator = None
            # else: healthy and running — catch-up adopts it.
        state.gate.open()
        state.migrating = True

    def _abandon_resume(self, state: TenantState, journal: MigrationJournal,
                        span: Any, reason: str,
                        span_reason: str = "unresumable") -> NoReturn:
        """Close a journal that cannot be resumed and its migration
        span; raises :class:`MigrationError`."""
        self._tear_down_migration(state)
        journal.close(completed=False)
        state.gate.open()
        self.tracer.finish(span, outcome="abandoned", reason=span_reason,
                           owner=journal.source)
        raise MigrationError(
            "cannot resume tenant %r: %s — re-migrate from scratch"
            % (state.name, reason))

    def resume_migration(self, tenant: str,
                         options: Optional[MigrationOptions] = None
                         ) -> Generator[Any, Any, MigrationReport]:
        """Re-enter an interrupted migration from its journal.

        The counterpart of :meth:`recover_routing` for whole
        migrations: where recovery resolves the in-doubt *handover* and
        keeps the surviving owner, resume picks the journalled
        migration back up after the crashed master recovered — skipping
        every chunk all destinations already installed and replaying
        only the SSL backlog that accumulated since, instead of
        re-dumping from scratch.

        Invariants (asserted by the race sweep in
        ``tests/test_resume_race.py``): exactly one owner at every
        re-entry offset, no remotely-committed transaction lost, and no
        chunk double-shipped.  Raises :class:`MigrationError` when
        there is nothing to resume and :class:`SourceCrashed` when the
        journalled source is still down.
        """
        state = self.tenant_state(tenant)
        journal = self._journals.get(tenant)
        if journal is None:
            raise MigrationError(
                "tenant %r has no migration journal to resume" % tenant)
        if journal.state in (JOURNAL_COMPLETED, JOURNAL_ABANDONED):
            raise MigrationError(
                "migration journal for tenant %r is %s; nothing to "
                "resume" % (tenant, journal.state))
        if (journal.state == JOURNAL_ACTIVE
                and journal.manager is not None
                and journal.manager.is_alive):
            raise MigrationError(
                "tenant %r migration is still being managed" % tenant)
        # A resume continues the journalled attempt; its snapshot
        # strategy is a fact of the journal, not a per-call choice.
        path = snapshot.path_for(journal.strategy)
        record = self._handovers.get(tenant)
        if record is not None and record.state == HANDOVER_READY:
            # The interrupted attempt got past the point of no return:
            # roll forward exactly as recover_routing() would.
            self._commit_handover(record, recovered=True)
        if self.route(tenant) == journal.destination:
            return self._settle_resumed_handover(state, journal, path)
        if record is not None and record.state == HANDOVER_PREPARED:
            self._rollback_handover(record, reason="resume")
        source_instance = self.cluster.node(journal.source).instance
        if source_instance.crashed:
            raise SourceCrashed(journal.source, "resume")
        opts = replace((options or MigrationOptions()).resolve(self.config),
                       strategy=path.strategy)
        journal.state = JOURNAL_ACTIVE
        journal.resumes += 1
        journal.manager = self.env.active_process
        dest_instance = self.cluster.node(journal.destination).instance
        report = self._resumed_report(journal, path)
        self.metrics.counter("migration.resumed").inc()
        self.tracer.event(
            "migration.resumed", tenant=tenant,
            phase=journal.suspend_phase or journal.phase,
            resumes=journal.resumes,
            chunks_restored=dict(journal.chunks_restored),
            total_chunks=journal.total_chunks,
            backlog=state.ssl.pending_count())
        migration_span = self.tracer.start(
            "migration", kind=MIGRATION, tenant=tenant,
            source=journal.source, destination=journal.destination,
            policy=self.config.policy.name, standbys=0,
            pipelined=True,  # resumed snapshots always stream
            strategy=journal.strategy,
            resumed=True, resumes=journal.resumes)
        run = _MigrationRun(
            tenant=tenant, state=state, opts=opts, report=report,
            migration_span=migration_span,
            source_instance=source_instance,
            dest_instance=dest_instance,
            destination=journal.destination, standby_instances={},
            source_down=source_instance.wait_crashed(),
            snapshot_csn=journal.snapshot_csn, journal=journal,
            resume=True)
        yield from self._quiesce_for_resume(state, journal, path,
                                            migration_span)
        if not path.recover_lost_copy(self, run):
            self._abandon_resume(
                state, journal, migration_span,
                "destination %s lost its copy after catch-up began"
                % (run.destination,), span_reason="destination_lost_copy")
        if path.snapshot_done(journal, run.destination):
            # Snapshot fully installed before the interruption: skip
            # straight to catch-up.
            report.snapshot_at = self.env.now
            report.restored_at = self.env.now
            report.snapshot_size_mb = journal.size_mb
            report.chunks_skipped = path.chunks_done(journal)
        else:
            journal.phase = "dump"
            phase_span = self.tracer.phase(
                "dump", parent=migration_span, pipelined=True,
                resumed=True, **path.resume_span_attrs)
            yield from self._snapshot_phase(run, phase_span)
        yield from self._catchup_phase(run)
        return (yield from self._handover_phase(run))

    def _resumed_report(self, journal: MigrationJournal,
                        path: snapshot.SnapshotPath) -> MigrationReport:
        """A fresh report for a journalled re-entry."""
        return MigrationReport(journal.tenant, journal.source,
                               journal.destination, self.config.policy.name,
                               started_at=self.env.now, mts=journal.mts,
                               pipelined=path.pipelined,
                               strategy=journal.strategy, resumed=True)

    def _settle_resumed_handover(self, state: TenantState,
                                 journal: MigrationJournal,
                                 path: snapshot.SnapshotPath
                                 ) -> MigrationReport:
        """Finish a resume whose handover already rolled forward.

        The interrupted attempt crashed after its ready record (or even
        after the routing flip): the destination owns the tenant and
        holds every remotely-committed transaction, so the only work
        left is tearing down the source-side migration scaffolding and
        reporting the migration as complete.
        """
        tenant = state.name
        journal.stop_snapshot("handover rolled forward")
        self._tear_down_migration(state, phase="resume",
                                  reason="handover rolled forward")
        state.gate.open()
        journal.close(completed=True)
        journal.resumes += 1
        report = self._resumed_report(journal, path)
        report.snapshot_at = self.env.now
        report.restored_at = self.env.now
        report.caught_up_at = self.env.now
        report.switched_at = self.env.now
        report.snapshot_size_mb = journal.size_mb
        report.chunks_skipped = path.chunks_done(journal)
        self._close_report(state, report, "ok", journal.destination)
        self.metrics.counter("migration.resumed").inc()
        self.metrics.counter("migration.completed").inc()
        self.tracer.event("migration.resumed", tenant=tenant,
                          phase="handover", resumes=journal.resumes,
                          settled=True)
        span = self.tracer.start(
            "migration", kind=MIGRATION, tenant=tenant,
            source=journal.source, destination=journal.destination,
            policy=self.config.policy.name, standbys=0,
            pipelined=path.pipelined, strategy=journal.strategy,
            resumed=True, settled=True)
        self.tracer.finish(span, outcome="ok",
                           owner=journal.destination, resumed=True,
                           settled=True)
        self.reports.append(report)
        return report

    def _publish_report_metrics(self, report: MigrationReport,
                                stats: Any) -> None:
        """Mirror one finished migration into the metrics registry."""
        self.metrics.counter("migration.completed").inc()
        self.metrics.absorb("propagation", stats)
        self.metrics.absorb("migration.last", {
            "migration_time": report.migration_time,
            "dump_time": report.dump_time,
            "restore_time": report.restore_time,
            "catchup_time": report.catchup_time,
            "switch_time": report.switch_time,
            "snapshot_size_mb": report.snapshot_size_mb,
            "slave_commit_count": report.slave_commit_count,
            "slave_flush_count": report.slave_flush_count,
            "slave_mean_group_size": report.slave_mean_group_size,
            "failovers": report.failovers,
            "ship_retries": report.ship_retries,
            "chunks": report.chunks,
        })

    def fail_standby(self, tenant: str, node_name: str) -> None:
        """Drop a failed standby slave and continue the migration.

        Section 4.2: "If a slave fails, Madeus discards the slave and
        continues to propagate the remaining syncsets to the others."
        The standby's backlog is discarded and its propagator told to
        wind down; the primary slave (and other standbys) are
        unaffected.  (This manual hook shares its teardown with the
        automatic crash-detection path in :meth:`migrate`.)
        """
        state = self.tenant_state(tenant)
        if node_name not in state.standby_propagators:
            raise MigrationError("no standby %r for tenant %r"
                                 % (node_name, tenant))
        self._drop_standby(state, node_name, phase="manual",
                           reason="failed by operator")

    def _drop_standby(self, state: TenantState, node_name: str,
                      phase: str, reason: str) -> None:
        """Discard one standby: stop its engine, drop its backlog."""
        propagator = state.standby_propagators.pop(node_name, None)
        ssl = state.standby_ssls.pop(node_name, None)
        if ssl is not None:
            ssl.take_all()
        if propagator is not None:
            propagator.request_stop()
        if state.change_tap is not None:
            # Broadcast stream: forget this consumer's cursor so pending
            # watermark markers stop waiting on a dead reader.
            state.change_tap.discard_consumer("standby:%s" % node_name)
        state.failed_standbys.append(node_name)
        self.metrics.counter("migration.standby_dropped").inc()
        self.tracer.event("migration.standby_dropped", tenant=state.name,
                          node=node_name, phase=phase, reason=reason)

    def _promote_standby(self, run: _MigrationRun, phase: str,
                         reason: str) -> None:
        """Fail over: the first surviving standby becomes destination.

        During catch-up the standby's SSL and propagator simply take
        over the primary role — the standby replayed the same syncset
        stream, so it is exactly as caught up as its own backlog says.
        Under a watermark migration the standby consumed its own cursor
        of the shared broadcast tap, so only the engine swaps: the dead
        primary's cursor is discarded and the tap keeps feeding the
        survivor.  Survivor choice is sorted-order for determinism.
        """
        state, report = run.state, run.report
        failed = run.destination
        promoted = sorted(run.standby_instances)[0]
        instance = run.standby_instances.pop(promoted)
        standby_prop = state.standby_propagators.pop(promoted, None)
        standby_ssl = state.standby_ssls.pop(promoted, None)
        if standby_prop is not None:
            if standby_ssl is not None:
                old_ssl = state.ssl
                state.ssl = standby_ssl
                old_ssl.take_all()  # the dead destination's backlog
            state.propagator = standby_prop
        if state.change_tap is not None:
            # The dead primary's cursor must not hold up future markers;
            # the promoted applier keeps reading its own named cursor.
            state.change_tap.discard_consumer("dest")
        report.destination = promoted
        report.failovers += 1
        self.metrics.counter("migration.failover").inc()
        self.tracer.event("migration.failover", tenant=run.tenant,
                          failed=failed, promoted=promoted, phase=phase,
                          reason=reason)
        run.destination, run.dest_instance = promoted, instance
        if run.journal is not None:
            run.journal.destination = promoted

    # ------------------------------------------------------------------
    # two-step ownership switch (handover journal)
    # ------------------------------------------------------------------
    def _prepare_handover(self, tenant: str, source: str,
                          destination: str) -> HandoverRecord:
        """Journal the intent to switch ownership (step one of two)."""
        record = HandoverRecord(tenant, source, destination,
                                prepared_at=self.env.now)
        self._handovers[tenant] = record
        self.metrics.counter("migration.handover_prepared").inc()
        self.tracer.event("handover.prepare", tenant=tenant,
                          source=source, destination=destination)
        return record

    def _mark_handover_ready(self, record: HandoverRecord) -> None:
        """Point of no return: drains done, destination is complete."""
        record.state = HANDOVER_READY
        self.tracer.event("handover.ready", tenant=record.tenant,
                          destination=record.destination)

    def _commit_handover(self, record: HandoverRecord,
                         recovered: bool = False) -> None:
        """Step two: flip the routing entry to the destination."""
        record.state = HANDOVER_COMMITTED
        record.resolved_at = self.env.now
        self._routes[record.tenant] = record.destination
        self.metrics.counter("migration.handover_committed").inc()
        self.tracer.event("handover.commit", tenant=record.tenant,
                          owner=record.destination, recovered=recovered)

    def _rollback_handover(self, record: HandoverRecord,
                           reason: str) -> None:
        """Resolve an unfinished switch back to the source."""
        record.state = HANDOVER_ROLLED_BACK
        record.resolved_at = self.env.now
        self._routes[record.tenant] = record.source
        self.metrics.counter("migration.handover_rolled_back").inc()
        self.tracer.event("handover.rollback", tenant=record.tenant,
                          owner=record.source, reason=reason)

    def _abort_source_crash(self, run: _MigrationRun, phase_span: Any,
                            phase: str) -> NoReturn:
        """Abort because the master crashed; raises :class:`SourceCrashed`.

        Section 4.2: "if the master fails, Madeus aborts the migration."
        The tenant keeps routing to the source, and nothing committed
        remotely is lost — the commit protocol installs versions only
        after the WAL flush, so every transaction the customer saw
        commit survives the crash and WAL-replay recovery on the source.

        Under a journalled (``resumable=True``) migration the abort is
        *suspension* instead: progress stays in the journal so
        :meth:`resume_migration` can re-enter after the master recovers.
        Either way :class:`SourceCrashed` propagates to the caller.
        """
        report = run.report
        report.source_crashed = True
        self.metrics.counter("migration.source_crashed").inc()
        self.tracer.event("migration.source_crashed", tenant=run.tenant,
                          source=report.source, phase=phase)
        journal = self._journals.get(run.tenant)
        if journal is not None and journal.state == JOURNAL_ACTIVE:
            self._suspend_migration(run.state, journal, report, phase)
            self.tracer.finish(phase_span, outcome="source_crashed")
            self.tracer.finish(run.migration_span, outcome="suspended",
                               reason="source_crashed",
                               owner=report.source)
        else:
            self._abort_migration(run, phase_span, "source_crashed",
                                  outcome="source_crashed")
        raise SourceCrashed(report.source, phase)

    def _abort_migration(self, run: _MigrationRun, phase_span: Any,
                         reason: str, **phase_attrs: Any) -> None:
        """Tear down a failed migration, close its spans, and report it.

        Aborted migrations are reported too: ``ended_at`` is set (so
        ``migration_time`` is meaningful), ``outcome`` says why it is
        not "ok", and the report joins :attr:`reports` and the metrics
        registry like any completed migration.  The source keeps (or
        recovers) ownership, and any handover record left in doubt by
        the abort rolls back so the journal resolves to one owner.
        """
        state, report = run.state, run.report
        self._tear_down_migration(state)
        self.tracer.finish(phase_span, **phase_attrs)
        self.tracer.finish(run.migration_span, outcome="aborted",
                           reason=reason, owner=report.source)
        self._close_report(state, report, "aborted", report.source)
        record = self._handovers.get(report.tenant)
        if record is not None and record.state in (HANDOVER_PREPARED,
                                                   HANDOVER_READY):
            self._rollback_handover(record, reason="migration aborted")
        journal = self._journals.get(report.tenant)
        if journal is not None and journal.state == JOURNAL_ACTIVE:
            journal.close(completed=False)
        self.metrics.counter("migration.aborted").inc()
        self.metrics.absorb("migration.last", {
            "migration_time": report.migration_time,
            "dump_time": report.dump_time,
            "snapshot_size_mb": report.snapshot_size_mb,
            "failovers": report.failovers,
            "ship_retries": report.ship_retries,
        })
        self.reports.append(report)

    def _close_report(self, state: TenantState, report: MigrationReport,
                      outcome: str, owner: str) -> None:
        """Stamp how a migration ended and who owns the tenant now."""
        report.outcome = outcome
        report.ended_at = self.env.now
        report.owner = owner
        report.failed_standbys = list(state.failed_standbys)
        state.failed_standbys.clear()

    def _divergence_watchdog(self, state: TenantState, fired: Event,
                             control: Dict[str, bool],
                             opts: MigrationOptions) -> Generator:
        """Abort-early detector over the primary replay backlog.

        Samples the replication backlog each interval (the SSL — read
        live, so a promoted standby's SSL is followed automatically —
        or the change tap under a watermark migration) and fires
        once the backlog has grown *strictly monotonically* across the
        whole window by at least the configured floor.  A healthy
        catch-up oscillates toward zero and never sustains that, so a
        positive signal means replay throughput is provably below the
        master's commit rate — the situation the paper reports as "N/A".
        """
        samples: List[int] = []
        while not control["stop"]:
            yield self.env.timeout(opts.divergence_interval)
            if control["stop"]:
                return
            samples.append(self._replication_backlog(state))
            if len(samples) > opts.divergence_window:
                samples.pop(0)
            if (len(samples) == opts.divergence_window
                    and all(later > earlier for earlier, later
                            in zip(samples, samples[1:]))
                    and (samples[-1] - samples[0]
                         >= opts.divergence_min_growth)):
                self.tracer.event("migration.diverging",
                                  tenant=state.name,
                                  samples=list(samples))
                if not fired.triggered:
                    fired.succeed()
                return

    def _tear_down_migration(self, state: TenantState,
                             phase: str = "abort",
                             reason: str = "migration aborted") -> None:
        """Stop linking, stop every engine, and drop every backlog.

        The orphaned slave copy is intentionally left in place: in-flight
        players may still be replaying against it, and the destination is
        abandoned by the caller anyway (the paper reports this outcome as
        "N/A" for B-CON under heavy workload).
        """
        state.migrating = False
        if state.propagator is not None:
            state.propagator.request_stop()
            state.propagator = None
        snapshot.close_tap(state)
        # Unlink any backlog so the SSL does not leak into a retry.
        state.ssl.take_all()
        # Standby engines must wind down too, or their propagators and
        # SSLs would leak into (and corrupt) a retry of the migration.
        for name in sorted(state.standby_propagators):
            self._drop_standby(state, name, phase=phase, reason=reason)
