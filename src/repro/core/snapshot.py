"""Steps 1-2 of a migration: copy the tenant to every target node.

The three :class:`~repro.core.watermark.SnapshotStrategy` paths —
serial dump/restore, the pipelined chunk stream, and DBLog-style
watermark walks (a chunked dump with no interleaved changes is the
degenerate virtual cut) — share one contract: copy the tenant to the
destination and every standby, record each node's failure in a
per-node error map instead of raising, and journal per-node progress
so a resumable migration re-enters where it stopped.  :func:`path_for`
maps a strategy to its :class:`SnapshotPath`; the middleware runs its
:meth:`~SnapshotPath.copy` and asks it the per-strategy resume
questions, so it never branches on the strategy itself.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator,
                    Optional, Union)

from ..engine.dump import (
    SnapshotTruncated,
    create_from_schemas,
    dump,
    dump_stream,
    finalize_indexes,
    restore,
    restore_duration,
    restore_stream,
    schema_specs,
    watermark_select,
)
from ..errors import NetworkDown, NodeCrashed
from ..sim.events import Interrupt
from ..sim.sync import Channel
from .pipeline import ChangeTap, ChunkFeed
from .watermark import ChangeStreamApplier, SnapshotStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from .middleware import (Middleware, MigrationJournal,
                             MigrationOptions, TenantState, _MigrationRun)

#: Per-node outcome of a copy: ``None`` once restored, else the reason.
RestoreErrors = Dict[str, Optional[str]]


def chunk_cap(opts: "MigrationOptions") -> float:
    """Chunk size of the streamed dump and of the watermark walk."""
    return opts.chunk_mb if opts.chunk_mb is not None else opts.rates.chunk_mb


def drop_copy(run: "_MigrationRun", node_name: str, instance: Any) -> None:
    """Discard a node's partial copy (before resending it whole)."""
    if instance.has_tenant(run.tenant):
        instance.drop_tenant(run.tenant)
    if run.journal is not None:
        run.journal.forget_chunks(node_name)


def close_tap(state: "TenantState") -> None:
    """A watermark tap dies with its migration: unpark any applier
    waiting at a marker so its engine can wind down, then stop
    capturing commit images."""
    if state.change_tap is not None:
        state.change_tap.cancel_pending_markers()
        state.change_tap = None


def ship(mw: "Middleware", run: "_MigrationRun", node_name: str,
         send: Callable[[], Generator],
         on_outage: Optional[Callable[[], None]] = None
         ) -> Generator[Any, Any, Optional[str]]:
    """Run ``send()`` to completion, resending across network outages.

    After each :class:`NetworkDown` ``on_outage()`` runs (discard a
    partial copy, stop a pump) and, while the ``retry_limit`` budget
    lasts, a capped exponential backoff precedes the resend.  Returns
    ``None`` on success or the last outage's message once the budget
    is spent; any other exception propagates.
    """
    opts = run.opts
    attempt = 0
    while True:
        try:
            yield from send()
            return None
        except NetworkDown as exc:
            attempt += 1
            if on_outage is not None:
                on_outage()
            if attempt > opts.retry_limit:
                return str(exc)
            delay = min(opts.retry_cap,
                        opts.retry_base * (2 ** (attempt - 1)))
            run.report.ship_retries += 1
            mw.metrics.counter("migration.retries").inc()
            mw.tracer.event("migration.retry", tenant=run.tenant,
                            node=node_name, attempt=attempt, delay=delay)
            yield mw.env.timeout(delay)


class SnapshotPath:
    """One snapshot strategy: its copy and its resume rules.

    The base class holds the rules of the frozen-chunk-plan paths
    (serial and pipelined): progress is the per-node installed-chunk
    count against ``journal.total_chunks``.
    """

    strategy: SnapshotStrategy
    #: Reported as ``MigrationReport.pipelined``.
    pipelined = False
    #: Whether the dump and restore spans overlap (the ``pipelined``
    #: trace attribute of a fresh migration).
    overlapped = True
    #: Extra attributes of a resumed attempt's ``dump`` span.
    resume_span_attrs: Dict[str, str] = {}

    def open_tap(self, env: "Environment",
                 tenant: str) -> Optional[ChangeTap]:
        """The change tap commits feed from Step 1 on (None: no tap)."""
        return None

    def copy(self, mw: "Middleware", run: "_MigrationRun", dump_span: Any,
             errors: RestoreErrors) -> Generator[Any, Any, Any]:
        """Steps 1+2 onto every target node; returns the open restore
        span.  Per-node failures land in ``errors``; a source crash
        raises through :meth:`Middleware._abort_source_crash`."""
        raise NotImplementedError

    def chunks_done(self, journal: "MigrationJournal") -> int:
        """Chunks a finished snapshot installed — what a resume that
        skips the whole snapshot reports as ``chunks_skipped``."""
        return journal.total_chunks

    def snapshot_done(self, journal: "MigrationJournal",
                      node_name: str) -> bool:
        """Whether ``node_name`` holds the whole journalled snapshot."""
        return (journal.chunks_restored.get(node_name, 0)
                >= journal.total_chunks)

    def quiesce(self, mw: "Middleware", state: "TenantState",
                journal: "MigrationJournal") -> Optional[str]:
        """Silence the interrupted attempt's snapshot leftovers before a
        resume; returns why it cannot resume, or ``None``."""
        return None

    def recover_lost_copy(self, mw: "Middleware",
                          run: "_MigrationRun") -> bool:
        """Reset the journal when the destination lost its partial copy
        while parked; False when that copy cannot be rebuilt."""
        journal = run.journal
        if (not journal.chunks_restored.get(run.destination, 0)
                or run.dest_instance.has_tenant(run.tenant)):
            return True
        # Chunks can be re-shipped from the frozen plan, but a syncset
        # already replayed into the lost copy is gone for good — only a
        # dump-phase journal (no replay yet) may start the ship over.
        if (run.state.propagator is not None or journal.replayed_syncsets
                or journal.phase != "dump"):
            return False
        journal.forget_chunks(run.destination)
        return True


class PipelinedPath(SnapshotPath):
    """Dump, ship, and restore overlap through a bounded chunk feed."""

    strategy = SnapshotStrategy.PIPELINED
    pipelined = True

    def copy(self, mw: "Middleware", run: "_MigrationRun", dump_span: Any,
             errors: RestoreErrors) -> Generator[Any, Any, Any]:
        """One producer process runs :func:`dump_stream` into a
        :class:`ChunkFeed`; per target node, a network pump and a
        :func:`restore_stream` consume it through a bounded channel.
        Back-pressure flows the whole way: slow destination disk ->
        full channel -> idle pump -> stalled feed reader -> paused dump.

        Transient outages rewind the node's reader and resend from the
        feed base (the feed retains emitted chunks exactly as the
        serial path retains its materialised snapshot); crashes mark
        the node failed.  On a resumed run the journal's frozen chunk
        plan governs the stream: the producer re-slices from the lowest
        chunk any node still needs and each node's restore re-enters at
        its own journalled offset.
        """
        tenant, opts, report = run.tenant, run.opts, run.report
        journal = run.journal
        rates = opts.rates
        nodes = [run.destination, *run.standby_instances]
        if run.resume:
            assert journal is not None
            size_mb = journal.size_mb
            total: Optional[int] = journal.total_chunks
            offsets = {name: min(journal.chunks_restored.get(name, 0),
                                 journal.total_chunks)
                       for name in nodes}
            base = min(offsets.values())
        else:
            size_mb = run.source_instance.tenant(tenant).size_mb()
            total = None
            offsets = {name: 0 for name in nodes}
            base = 0
        report.snapshot_size_mb = size_mb
        report.chunks_skipped = base
        started = mw.env.now
        feed = ChunkFeed(mw.env, depth=opts.pipeline_depth,
                         name="feed.%s" % tenant)
        readers = {name: feed.reader(name, start=offsets[name] - base)
                   for name in nodes}
        dump_result: Dict[str, Any] = {}

        def producer() -> Generator:
            try:
                chunks = yield from dump_stream(
                    run.source_instance, tenant, run.snapshot_csn,
                    rates, feed, chunk_mb=opts.chunk_mb,
                    start_index=base, total_chunks=total,
                    total_size_mb=size_mb if run.resume else None)
            except NodeCrashed as exc:
                dump_result["error"] = exc
                feed.fail(exc)
                mw.tracer.finish(dump_span, outcome="failed")
            except RuntimeError as exc:
                # Every reader failed permanently; the per-node errors
                # tell the real story.
                dump_result["error"] = exc
                mw.tracer.finish(dump_span, outcome="abandoned")
            except Interrupt:
                # Quiesced by a journalled re-entry; the resume's own
                # producer takes over from the journalled offsets.
                return
            else:
                report.chunks = chunks
                report.snapshot_at = mw.env.now
                mw.tracer.finish(dump_span, mts=report.mts,
                                 size_mb=size_mb, chunks=chunks,
                                 chunks_skipped=base)

        producer_proc = mw.env.process(producer(), name="dump.%s" % tenant)
        restore_span = mw.tracer.phase("restore", parent=run.migration_span,
                                       size_mb=size_mb, pipelined=True)

        def node_stream(node_name: str, instance: Any) -> Generator:
            """Pump + streaming restore for one node; never raises."""
            reader = readers[node_name]
            resume_from = offsets[node_name]
            pump: Any = None

            def send() -> Generator:
                nonlocal pump
                if resume_from == base:
                    # Feed position 0 is chunk ``base``: a resend (and a
                    # first send from the base) reads from there.
                    reader.rewind()
                channel = Channel(mw.env, capacity=opts.pipeline_depth,
                                  name="ship.%s.%s" % (tenant, node_name))
                pump = mw.env.process(
                    mw.cluster.network.pump_chunks(
                        reader, channel, route=(report.source, node_name)),
                    name="pump.%s.%s" % (tenant, node_name))
                yield from restore_stream(
                    instance, channel, rates, tenant_name=tenant,
                    resume_from=resume_from,
                    schemas=journal.schemas if journal is not None else None,
                    expected_total=total,
                    on_chunk=(None if journal is None else
                              lambda chunk: journal.record_chunk(
                                  node_name, chunk.index)))

            def on_outage() -> None:
                nonlocal resume_from
                if pump.is_alive:
                    pump.interrupt("ship retry")
                # Chunks below the feed base can never be re-shipped on
                # this stream: keep the copy and re-enter at the base.
                resume_from = base
                if base == 0:
                    drop_copy(run, node_name, instance)

            try:
                error = yield from ship(mw, run, node_name, send, on_outage)
            except (NodeCrashed, SnapshotTruncated) as exc:
                if pump.is_alive:
                    pump.interrupt("restore failed")
                error = str(exc)
            except Interrupt:
                # Quiesced by a journalled re-entry.
                if pump.is_alive:
                    pump.interrupt("migration suspended")
                errors[node_name] = "interrupted"
                return
            errors[node_name] = error
            if error is not None:
                reader.close()

        runners = [mw.env.process(node_stream(name, instance),
                                  name="restore.%s.%s" % (tenant, name))
                   for name, instance in run.targets()]
        if journal is not None:
            journal.snapshot_procs = [producer_proc] + list(runners)
        yield mw.env.all_of(runners)
        yield producer_proc  # the dump span is closed either way
        window = mw.env.now - started
        dump_elapsed = report.snapshot_at - started
        if size_mb > 0 and dump_elapsed > 0:
            mw.metrics.gauge("pipeline.dump_mb_s").set(
                size_mb / dump_elapsed)
        if size_mb > 0 and window > 0:
            mw.metrics.gauge("pipeline.restore_mb_s").set(size_mb / window)
        mw.metrics.gauge("pipeline.chunks").set(report.chunks)
        mw.metrics.gauge("pipeline.backpressure_wait_s").set(
            feed.producer_wait_time)
        if isinstance(dump_result.get("error"), NodeCrashed):
            # The *source* died mid-dump: nothing useful restored
            # anywhere; abort and keep source ownership.
            mw._abort_source_crash(run, restore_span, phase="dump")
        return restore_span


class SerialPath(PipelinedPath):
    """The paper-faithful monolithic dump -> ship -> restore chain."""

    strategy = SnapshotStrategy.SERIAL
    pipelined = False
    overlapped = False

    def copy(self, mw: "Middleware", run: "_MigrationRun", dump_span: Any,
             errors: RestoreErrors) -> Generator[Any, Any, Any]:
        if run.resume:
            # A resumed serial migration streams from the journal's
            # frozen chunk plan: the one-shot ship has no per-chunk
            # offset to re-enter at.
            return (yield from super().copy(mw, run, dump_span, errors))
        tenant, opts, report = run.tenant, run.opts, run.report
        journal = run.journal
        try:
            snapshot = yield from dump(run.source_instance, tenant,
                                       run.snapshot_csn, opts.rates)
        except NodeCrashed:
            mw._abort_source_crash(run, dump_span, phase="dump")
        report.snapshot_at = mw.env.now
        report.snapshot_size_mb = snapshot.size_mb
        mw.tracer.finish(dump_span, mts=report.mts, size_mb=snapshot.size_mb)
        # --- Step 2: create the slave(s) -------------------------------
        restore_span = mw.tracer.phase("restore", parent=run.migration_span,
                                       size_mb=snapshot.size_mb)

        def ship_and_restore(node_name: str, instance: Any) -> Generator:
            """Ship + restore one node; never raises (``all_of`` fails
            fast on a sub-event failure)."""

            def send() -> Generator:
                yield from mw.cluster.network.message(snapshot.size_mb)
                yield from restore(instance, snapshot, opts.rates,
                                   tenant_name=tenant)

            try:
                errors[node_name] = yield from ship(
                    mw, run, node_name, send,
                    lambda: drop_copy(run, node_name, instance))
            except NodeCrashed as exc:
                errors[node_name] = str(exc)
            except Interrupt:
                # Quiesced by a journalled re-entry.
                errors[node_name] = "interrupted"
            if errors[node_name] is None and journal is not None:
                # The serial restore lands whole: journal the entire
                # chunk plan as installed.
                journal.chunks_restored[node_name] = journal.total_chunks

        restores = [mw.env.process(ship_and_restore(name, instance))
                    for name, instance in run.targets()]
        if journal is not None:
            journal.snapshot_procs = list(restores)
        yield mw.env.all_of(restores)
        return restore_span


class WatermarkPath(SnapshotPath):
    """Chunked selects under live load, interleaved with the change
    stream (DBLog watermarks); catch-up bounded by chunk size."""

    strategy = SnapshotStrategy.WATERMARK
    resume_span_attrs = {"strategy": "watermark"}

    def open_tap(self, env: "Environment",
                 tenant: str) -> Optional[ChangeTap]:
        # From the very next commit every row post-image flows into the
        # change tap instead of the SSL.
        return ChangeTap(env, name=tenant)

    def chunks_done(self, journal: "MigrationJournal") -> int:
        # The key walk has no frozen chunk plan: count what it walked.
        return journal.watermark_chunks

    def snapshot_done(self, journal: "MigrationJournal",
                      node_name: str) -> bool:
        # The journal phase says whether the walk finished before the
        # interruption.
        return journal.phase != "dump"

    def quiesce(self, mw: "Middleware", state: "TenantState",
                journal: "MigrationJournal") -> Optional[str]:
        tap = state.change_tap
        if tap is None:
            if journal.phase == "dump":
                return ("the watermark change tap was torn down mid-walk, "
                        "so commit images since the last watermark are "
                        "unrecoverable")
            return None
        # Unpark an applier left waiting at a watermark of the
        # interrupted attempt: its marker is still at the tap cursor, so
        # cancelling fires the pending ``proceed`` and the resumed walk
        # brackets the re-selected chunk afresh.
        cancelled = tap.cancel_pending_markers()
        if cancelled:
            mw.tracer.event("watermark.markers_cancelled",
                            tenant=state.name, count=cancelled)
        return None

    def recover_lost_copy(self, mw: "Middleware",
                          run: "_MigrationRun") -> bool:
        journal = run.journal
        if (journal.chunks_restored.get(run.destination, 0)
                and not run.dest_instance.has_tenant(run.tenant)):
            # A lost watermark copy restarts the key walk from scratch:
            # every change record already drained into it is re-covered
            # by the live re-selects (the current row state *includes*
            # those changes), so unlike the frozen-plan stream nothing
            # is unrecoverable.
            journal.watermark_cursor = None
            journal.watermark_chunks = 0
            journal.forget_chunks(run.destination)
            journal.phase = "dump"
            mw.tracer.event("watermark.walk_restarted", tenant=run.tenant,
                            destination=run.destination)
        return True

    def copy(self, mw: "Middleware", run: "_MigrationRun", dump_span: Any,
             errors: RestoreErrors) -> Generator[Any, Any, Any]:
        """The DBLog watermark algorithm: every committed transaction's
        row post-images flow through the tenant's :class:`ChangeTap` and
        are replayed on each node by a :class:`ChangeStreamApplier`
        while this manager walks the key space in chunks.  Each chunk
        select is bracketed by ``lo`` / ``hi`` markers injected into the
        change stream; once the appliers have consumed everything before
        ``hi`` they park, chunk rows whose keys changed inside the
        window are dropped (the stream already delivered a newer image),
        the survivors ship over the shared prioritised bulk stream and
        install, and the appliers proceed.  Installs therefore land
        strictly between the in-window records and anything newer, so
        the copy is snapshot-equivalent without ever freezing a CSN.

        ``journal.watermark_cursor`` / ``watermark_chunks`` let a resume
        re-enter the key walk at the last fully installed chunk.
        """
        state, opts, report = run.state, run.opts, run.report
        tenant = run.tenant
        rates = opts.rates
        journal = run.journal
        tap = state.change_tap
        assert tap is not None, "watermark migration without a change tap"
        source_db = run.source_instance.tenant(tenant)
        size_mb = source_db.size_mb()
        total_rows = source_db.row_count()
        mb_per_row = size_mb / total_rows if total_rows else 0.0
        rows_per_chunk = (max(1, int(chunk_cap(opts) / mb_per_row))
                          if mb_per_row > 0 else 1)
        report.snapshot_size_mb = size_mb
        cursor: Any = None
        chunk_index = 0
        if journal is not None:
            cursor = journal.watermark_cursor
            chunk_index = journal.watermark_chunks
            report.chunks_skipped = journal.watermark_chunks
        specs = (journal.schemas if journal is not None and journal.schemas
                 else schema_specs(source_db))
        if not run.dest_instance.has_tenant(tenant):
            create_from_schemas(run.dest_instance, tenant, specs,
                                source_db.fixed_overhead_mb,
                                source_db.size_multiplier)
        applier = state.propagator
        if applier is None:
            applier = ChangeStreamApplier(
                mw.env, tap.consumer("dest"), report.source, state.ssl,
                run.dest_instance, tenant, mw.cluster.network,
                mw.config.policy, tracer=mw.tracer, metrics=mw.metrics)
            state.propagator = applier
            applier.start()
        # Standby fan-out off the same broadcast tap: each standby gets
        # its own named cursor (one feed, N consumers — no per-reader
        # re-read of the source) and replays the identical stream; the
        # chunk walk below ships every deduplicated chunk to standbys
        # too, so a surviving standby is exactly as complete as the
        # destination at every point past the walk.
        for name, instance in run.standby_instances.items():
            if name in state.standby_propagators:
                continue  # adopted across a resume
            if not instance.has_tenant(tenant):
                create_from_schemas(instance, tenant, specs,
                                    source_db.fixed_overhead_mb,
                                    source_db.size_multiplier)
            standby_applier = ChangeStreamApplier(
                mw.env, tap.consumer("standby:%s" % name),
                report.source, state.ssl, instance, tenant,
                mw.cluster.network, mw.config.policy,
                tracer=mw.tracer, metrics=mw.metrics,
                metrics_prefix="propagation.standby.%s" % name)
            state.standby_propagators[name] = standby_applier
            standby_applier.start()
        restore_span = mw.tracer.phase(
            "restore", parent=run.migration_span, size_mb=size_mb,
            pipelined=True, strategy="watermark")

        def fail_destination(reason: str) -> Any:
            errors[run.destination] = reason
            # A mid-walk standby holds chunks only up to the point of
            # failure, so there is nothing complete to promote: discard
            # the lot and let the shared tail abort.
            for name in sorted(run.standby_instances):
                run.standby_instances.pop(name)
                mw._drop_standby(state, name, phase="watermark",
                                 reason="primary walk failed: %s" % reason)
            mw.tracer.finish(dump_span, outcome="failed")
            return restore_span

        while True:
            lo = tap.marker("lo", chunk_index)
            mw.tracer.event("watermark.lo", tenant=tenant, chunk=chunk_index)
            applier.notify_linked()
            try:
                rows, next_cursor = yield from watermark_select(
                    run.source_instance, tenant, cursor, rows_per_chunk,
                    mb_per_row, rates)
            except NodeCrashed:
                mw.tracer.finish(restore_span, outcome="source_crashed")
                mw._abort_source_crash(run, dump_span, phase="dump")
            hi = tap.marker("hi", chunk_index)
            applier.notify_linked()
            for prop in state.standby_propagators.values():
                prop.notify_linked()
            while not hi.reached.triggered:
                standby_failed = {
                    name: prop.wait_failed()
                    for name, prop in state.standby_propagators.items()}
                waits = [hi.reached, applier.wait_failed(),
                         run.source_down]
                waits.extend(standby_failed.values())
                fired = yield mw.env.any_of(waits)
                if fired is run.source_down:
                    mw.tracer.finish(restore_span,
                                     outcome="source_crashed")
                    mw._abort_source_crash(run, dump_span, phase="dump")
                if hi.reached.triggered:
                    break
                dropped = None
                for name, event in standby_failed.items():
                    if fired is event:
                        dropped = name
                        break
                if dropped is not None:
                    # Section 4.2 applied to the broadcast: discard the
                    # dead consumer's cursor (which may be the one the
                    # ``hi`` marker is still waiting on) and walk on.
                    reason = (state.standby_propagators[dropped].failed
                              or "replay failed")
                    run.standby_instances.pop(dropped, None)
                    mw._drop_standby(state, dropped, phase="watermark",
                                     reason=reason)
                    continue
                # The destination applier died replaying the stream.
                return fail_destination(applier.failed or "replay failed")
            window = tap.window_keys(lo, hi)
            fresh = {table_name: {key: row
                                  for key, row in table_rows.items()
                                  if (table_name, key) not in window}
                     for table_name, table_rows in rows.items()}
            selected = sum(map(len, rows.values()))
            kept = sum(map(len, fresh.values()))
            chunk_mb = mb_per_row * kept

            def land(node_name: str, instance: Any,
                     paced: bool) -> Generator[Any, Any, Optional[str]]:
                """Ship the deduplicated chunk to one node and install
                it; returns why it could not, or ``None``."""

                def send() -> Generator:
                    if chunk_mb > 0:
                        yield from mw.cluster.network.bulk_transfer(
                            report.source, node_name, chunk_mb)

                try:
                    error = yield from ship(mw, run, node_name, send)
                    if error is None and chunk_mb > 0:
                        yield from instance.disk.write(chunk_mb)
                        spec = instance.disk.spec
                        io_time = (spec.seek_latency
                                   + chunk_mb / spec.write_bandwidth_mb_s)
                        pace = restore_duration(chunk_mb, rates) - io_time
                        if paced and pace > 0:
                            yield mw.env.timeout(pace)
                except NodeCrashed as exc:
                    error = str(exc)
                if error is None and instance.crashed:
                    error = "%s crashed during watermark install" % node_name
                if error is None:
                    instance.tenant(tenant).install_many(
                        instance.next_csn(), fresh)
                return error

            error = yield from land(run.destination, run.dest_instance,
                                    paced=True)
            if error is not None:
                return fail_destination(error)
            # Fan the deduplicated chunk out to the standbys before any
            # consumer resumes past ``hi``: installs must land strictly
            # between the in-window records and anything newer on every
            # copy, or the standby loses snapshot-equivalence.  A
            # standby that cannot take the chunk is discarded; it never
            # stalls the primary walk.  A standby pays the disk write
            # but not the destination's restore pacing.
            for name in sorted(run.standby_instances):
                error = yield from land(name, run.standby_instances[name],
                                        paced=False)
                if error is not None:
                    run.standby_instances.pop(name)
                    mw._drop_standby(state, name, phase="watermark",
                                     reason=error)
            if not hi.proceed.triggered:
                hi.proceed.succeed()
            mw.tracer.event("watermark.hi", tenant=tenant,
                            chunk=chunk_index, rows=selected,
                            deduped=selected - kept, window=len(window))
            chunk_index += 1
            report.chunks += 1
            if journal is not None:
                journal.watermark_chunks = chunk_index
                journal.watermark_cursor = next_cursor
                for name, _instance in run.targets():
                    journal.record_chunk(name, chunk_index - 1)
            if next_cursor is None:
                break
            cursor = next_cursor
        for _name, instance in run.targets():
            finalize_indexes(instance.tenant(tenant), specs)
        report.snapshot_at = mw.env.now
        mw.metrics.gauge("watermark.chunks").set(report.chunks)
        mw.metrics.gauge("watermark.backlog_at_walk_end").set(
            tap.pending_count())
        mw.tracer.finish(dump_span, mts=report.mts, size_mb=size_mb,
                         chunks=report.chunks,
                         chunks_skipped=report.chunks_skipped)
        return restore_span


_PATHS: Dict[SnapshotStrategy, SnapshotPath] = {
    path.strategy: path
    for path in (SerialPath(), PipelinedPath(), WatermarkPath())}


def path_for(strategy: Union[SnapshotStrategy, str]) -> SnapshotPath:
    """The :class:`SnapshotPath` of ``strategy`` (member or string)."""
    return _PATHS[SnapshotStrategy.coerce(strategy)]
