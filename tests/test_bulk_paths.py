"""The bulk host paths: state comparison, bulk row loads, size counters.

Each fast path is checked against a reference that keeps the simple
algorithm it replaced:

* ``states_equal`` against a comparison built on ``state_fingerprint``
  (every live row rendered as sorted items, keys walked by ``repr``);
* ``watermark_select`` against a select that copies each table and
  sorts every key on every chunk;
* ``Table.live_row_count`` against a full recount of the heap, after
  row-at-a-time installs, ``Table.install_many``, restores, a resumed
  chunk stream, and watermark chunk installs on a destination and its
  standby.

A bulk load adds no per-row object to the cyclic collector's heap, and a
migration's handover check still compares the destination and every
standby with the source and names an injected one-row divergence.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MigrationOptions, SnapshotStrategy, states_equal
from repro.engine import DbmsInstance, Session
from repro.engine.database import Table, TenantDatabase
from repro.engine.dump import (SnapshotTruncated, dump, dump_stream,
                               restore, restore_stream, watermark_select)
from repro.engine.schema import TableSchema
from repro.engine.sqlmini import ColumnDef
from repro.sim import Channel, Environment
from repro.workload.simplekv import setup_kv_tenant

from _helpers import drive
from test_fault_tolerance import RATES, build, seed_tenant

TABLES = ("t1", "t2", "t3")


def _schema(name: str, indexed: bool = False) -> TableSchema:
    schema = TableSchema(name, (ColumnDef("k", "INT", True),
                                ColumnDef("v", "INT")))
    if indexed:
        schema.add_index("idx_v_%s" % name, "v")
    return schema


def _recount(table: Table) -> int:
    return sum(1 for key in table.keys() if table.latest(key) is not None)


def _assert_counts(tenant: TenantDatabase) -> None:
    for name, table in tenant.tables.items():
        assert table.live_row_count() == _recount(table), name


# ---------------------------------------------------------------------------
# states_equal
# ---------------------------------------------------------------------------

def reference_states_equal(master: TenantDatabase, slave: TenantDatabase):
    """The fingerprint-based comparison ``states_equal`` must match."""
    master_state = master.state_fingerprint()
    slave_state = slave.state_fingerprint()
    differences: List[str] = []
    for table in sorted(set(master_state) | set(slave_state)):
        m_rows = master_state.get(table)
        s_rows = slave_state.get(table)
        if m_rows is None or s_rows is None:
            differences.append("table %r missing on %s"
                               % (table, "slave" if s_rows is None
                                  else "master"))
            continue
        for key in sorted(set(m_rows) | set(s_rows), key=repr):
            if m_rows.get(key) != s_rows.get(key):
                differences.append(
                    "table %r key %r: master=%r slave=%r"
                    % (table, key, m_rows.get(key), s_rows.get(key)))
                if len(differences) >= 20:
                    return False, differences
    return not differences, differences


#: A key's history on one side: values installed in order, ``None`` a
#: tombstone.  An empty history means the key was never written.
histories = st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=3)
table_states = st.dictionaries(st.integers(0, 30), histories, max_size=25)


def _tenant(env: Environment, state: Dict[str, Dict[int, List]]
            ) -> TenantDatabase:
    tenant = TenantDatabase("T", env)
    for name, keys in state.items():
        tenant.create_table(_schema(name))
        table = tenant.table(name)
        for key, history in keys.items():
            for csn, value in enumerate(history, start=1):
                table.install(key, csn, None if value is None
                              else {"k": key, "v": value})
    return tenant


@st.composite
def tenant_pairs(draw):
    master = draw(st.dictionaries(st.sampled_from(TABLES), table_states,
                                  max_size=3))
    if draw(st.booleans()):
        return master, draw(st.dictionaries(st.sampled_from(TABLES),
                                            table_states, max_size=3))
    # A near copy: same tables, a few keys rewritten on the slave.
    slave = {name: dict(keys) for name, keys in master.items()}
    for name in slave:
        for key, history in draw(table_states).items():
            if draw(st.integers(0, 3)) == 0:
                slave[name][key] = history
    return master, slave


@settings(max_examples=300, deadline=None)
@given(pair=tenant_pairs())
def test_states_equal_matches_the_fingerprint_reference(pair):
    env = Environment()
    master, slave = (_tenant(env, state) for state in pair)
    assert states_equal(master, slave) == reference_states_equal(master,
                                                                 slave)


class TestStatesEqualCases:
    def _both(self, env, master, slave):
        a, b = _tenant(env, master), _tenant(env, slave)
        result = states_equal(a, b)
        assert result == reference_states_equal(a, b)
        return result

    def test_missing_table_on_either_side(self, env):
        assert self._both(env, {"t1": {1: [0]}, "t2": {}},
                          {"t1": {1: [0]}}) == (
            False, ["table 't2' missing on slave"])
        assert self._both(env, {"t1": {1: [0]}},
                          {"t1": {1: [0]}, "t3": {}}) == (
            False, ["table 't3' missing on master"])

    def test_tombstone_equals_a_never_written_key(self, env):
        assert self._both(env, {"t1": {1: [0], 2: [5, None]}},
                          {"t1": {1: [0]}}) == (True, [])

    def test_single_value_difference_text(self, env):
        assert self._both(env, {"t1": {1: [0], 2: [2]}},
                          {"t1": {1: [0], 2: [3]}}) == (
            False, ["table 't1' key 2: master=(('k', 2), ('v', 2)) "
                    "slave=(('k', 2), ('v', 3))"])

    def test_mismatches_are_capped_at_twenty(self, env):
        equal, differences = self._both(
            env, {"t1": {key: [0] for key in range(30)}},
            {"t1": {key: [1] for key in range(30)}})
        assert not equal
        assert len(differences) == 20

    def test_equal_live_counts_with_one_differing_row(self, env):
        master = {"t1": {key: [key % 4] for key in range(10)}}
        slave = {"t1": {key: [key % 4] for key in range(10)}}
        slave["t1"][7] = [0]
        a, b = _tenant(env, master), _tenant(env, slave)
        assert a.row_count() == b.row_count()
        assert a.size_bytes() == b.size_bytes()
        equal, differences = states_equal(a, b)
        assert not equal
        assert differences == ["table 't1' key 7: master=(('k', 7), "
                               "('v', 3)) slave=(('k', 7), ('v', 0))"]


# ---------------------------------------------------------------------------
# watermark_select
# ---------------------------------------------------------------------------

def reference_select(tenant: TenantDatabase, cursor, max_rows: int):
    """Copy each table, sort all its keys, take those after the cursor."""
    rows: Dict[str, Dict[int, Any]] = {}
    taken = 0
    next_cursor = None
    for table_name in sorted(tenant.catalog.table_names()):
        if cursor is not None and table_name < cursor[0]:
            continue
        latest = dict(tenant.table(table_name).latest_rows())
        for key in sorted(latest):
            if (cursor is not None and table_name == cursor[0]
                    and not key > cursor[1]):
                continue
            rows.setdefault(table_name, {})[key] = dict(latest[key])
            taken += 1
            if taken >= max_rows:
                next_cursor = (table_name, key)
                break
        if next_cursor is not None:
            break
    return rows, next_cursor


#: One change between chunks: ``(table, key, value)``, ``None`` deletes.
changes = st.tuples(st.sampled_from(TABLES), st.integers(0, 60),
                    st.one_of(st.none(), st.integers(0, 9)))


@settings(max_examples=150, deadline=None)
@given(tables=st.dictionaries(st.sampled_from(TABLES), table_states,
                              min_size=1, max_size=3),
       max_rows=st.integers(1, 12),
       between=st.lists(st.lists(changes, max_size=6), max_size=12))
def test_watermark_select_matches_the_sorting_reference(tables, max_rows,
                                                        between):
    env = Environment()
    instance = DbmsInstance(env, "src")
    instance.create_tenant("T")
    tenant = instance.tenant("T")
    for name in tables:
        tenant.create_table(_schema(name))
    for name, keys in tables.items():
        for key, history in keys.items():
            for value in history:
                tenant.table(name).install(
                    key, instance.next_csn(),
                    None if value is None else {"k": key, "v": value})
    cursor = None
    walked = 0
    while True:
        expected = reference_select(tenant, cursor, max_rows)
        got = drive(env, watermark_select(instance, "T", cursor, max_rows,
                                          0.001, RATES))
        assert got == expected
        rows, cursor = got
        # Walk order too: tables ascending, keys ascending in each.
        assert ([(name, list(table_rows)) for name, table_rows
                 in rows.items()]
                == [(name, sorted(table_rows)) for name, table_rows
                    in sorted(expected[0].items())])
        if cursor is None:
            break
        for table_name, key, value in (between[walked]
                                       if walked < len(between) else ()):
            if tenant.has_table(table_name):
                tenant.table(table_name).install(
                    key, instance.next_csn(),
                    None if value is None else {"k": key, "v": value})
        walked += 1


def test_watermark_select_ends_with_an_empty_chunk_on_an_exact_fit(env):
    instance = DbmsInstance(env, "src")
    instance.create_tenant("T")
    tenant = instance.tenant("T")
    tenant.create_table(_schema("t1"))
    for key in range(4):
        tenant.table("t1").install(key, instance.next_csn(),
                                   {"k": key, "v": 0})
    rows, cursor = drive(env, watermark_select(instance, "T", None, 4,
                                               0.001, RATES))
    assert list(rows) == ["t1"]
    assert list(rows["t1"]) == [0, 1, 2, 3]
    assert cursor == ("t1", 3)
    assert drive(env, watermark_select(instance, "T", cursor, 4, 0.001,
                                       RATES)) == ({}, None)


# ---------------------------------------------------------------------------
# live-row counter and the bulk row-load path
# ---------------------------------------------------------------------------

#: ``(key, value)`` installs; a ``None`` value is a tombstone.
table_ops = st.lists(st.tuples(st.integers(0, 15),
                               st.one_of(st.none(), st.integers(0, 5))),
                     max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=table_ops, bulk=st.dictionaries(st.integers(0, 30),
                                           st.integers(0, 5)),
       indexed=st.booleans())
def test_live_row_count_matches_a_recount(ops, bulk, indexed):
    table = Table(_schema("t1", indexed=indexed))
    csn = 0
    for key, value in ops:
        csn += 1
        table.install(key, csn, None if value is None
                      else {"k": key, "v": value})
        assert table.live_row_count() == _recount(table)
    # The bulk path over a mix of fresh keys and existing chains.
    table.install_many(csn + 1, {key: {"k": key, "v": value}
                                 for key, value in bulk.items()})
    assert table.live_row_count() == _recount(table)
    for key, value in bulk.items():
        assert table.latest(key) == {"k": key, "v": value}
    if indexed:
        rebuilt = Table(_schema("t1"))
        rebuilt.install_many(csn + 1, table.latest_row_map())
        rebuilt.create_index("idx", "v")
        assert (table.indexes["idx_v_t1"].entries
                == rebuilt.indexes["idx"].entries)


class TestInstallMany:
    def test_existing_chain_keeps_the_monotonic_csn_check(self):
        table = Table(_schema("t1"))
        table.install(1, 5, {"k": 1, "v": 0})
        with pytest.raises(ValueError):
            table.install_many(5, {2: {"k": 2, "v": 0},
                                   1: {"k": 1, "v": 1}})
        # The row loaded before the failure is counted.
        assert table.live_row_count() == _recount(table) == 2

    def test_rows_are_copied(self):
        rows = {1: {"k": 1, "v": 0}}
        table = Table(_schema("t1"))
        table.install_many(1, rows)
        rows[1]["v"] = 9
        assert table.latest(1) == {"k": 1, "v": 0}


def _populated(env, rows: int = 40, size_mb: float = 16.0) -> DbmsInstance:
    source = DbmsInstance(env, "src")
    source.create_tenant("T")

    def setup(env):
        s = Session(source, "T")
        yield from s.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        yield from s.execute("CREATE INDEX idx_v ON kv (v)")
        yield from s.execute("BEGIN")
        for key in range(rows):
            yield from s.execute("INSERT INTO kv (k, v) VALUES (%d, %d)"
                                 % (key, key % 7))
        yield from s.execute("COMMIT")
        yield from s.execute("BEGIN")
        yield from s.execute("DELETE FROM kv WHERE v = 3")
        yield from s.execute("COMMIT")
    drive(env, setup(env))
    tenant = source.tenant("T")
    tenant.size_multiplier = 0.0
    tenant.fixed_overhead_mb = size_mb
    return source


class _ListSink:
    def __init__(self, env):
        self.env = env
        self.chunks: List[Any] = []

    def put(self, chunk):
        self.chunks.append(chunk)
        yield self.env.timeout(0)

    def close(self):
        pass


def _feed(env, chunks) -> Channel:
    channel = Channel(env, capacity=len(chunks) + 1)

    def feeder(env):
        for chunk in chunks:
            yield from channel.put(chunk)
        channel.close()
    env.process(feeder(env))
    return channel


class TestCounterAfterRestores:
    def test_after_restore(self, env):
        source = _populated(env)
        destination = DbmsInstance(env, "dst")
        snapshot = drive(env, dump(source, "T", source.current_csn(),
                                   RATES))
        drive(env, restore(destination, snapshot, RATES))
        copy = destination.tenant("T")
        _assert_counts(copy)
        assert copy.row_count() == source.tenant("T").row_count()
        assert states_equal(source.tenant("T"), copy) == (True, [])

    def test_after_a_resumed_stream_with_a_redelivered_chunk(self, env):
        source = _populated(env)
        destination = DbmsInstance(env, "dst")
        sink = _ListSink(env)
        drive(env, dump_stream(source, "T", source.current_csn(), RATES,
                               sink, chunk_mb=4.0))
        chunks = sink.chunks
        assert len(chunks) >= 3

        def first_pass(env):
            with pytest.raises(SnapshotTruncated):
                yield from restore_stream(destination,
                                          _feed(env, chunks[:2]), RATES)
        drive(env, first_pass(env))
        _assert_counts(destination.tenant("T"))
        # Resume after two installed chunks, re-delivering the second.
        drive(env, restore_stream(destination, _feed(env, chunks[1:]),
                                  RATES, tenant_name="T", resume_from=2,
                                  schemas=chunks[0].schemas,
                                  expected_total=len(chunks)))
        copy = destination.tenant("T")
        _assert_counts(copy)
        assert copy.row_count() == source.tenant("T").row_count()
        assert states_equal(source.tenant("T"), copy) == (True, [])


def test_counter_after_watermark_chunks_on_destination_and_standby(env):
    cluster, middleware = build(env, nodes=3)
    seed_tenant(env, cluster, middleware, overhead_mb=10.0)
    copies = [cluster.node(name).instance for name in ("node1", "node2")]
    checked: List[str] = []
    event = middleware.tracer.event

    def checking_event(name, **attrs):
        if name == "watermark.hi":
            # Every copy has installed this chunk by the time it fires.
            for instance in copies:
                _assert_counts(instance.tenant("A"))
            checked.append(name)
        return event(name, **attrs)
    middleware.tracer.event = checking_event
    holder: Dict[str, Any] = {}

    def main(env):
        holder["report"] = yield from middleware.migrate(
            "A", "node1", MigrationOptions(
                rates=RATES, chunk_mb=1.0,
                strategy=SnapshotStrategy.WATERMARK,
                standbys=("node2",)))
    env.process(main(env))
    env.run()
    report = holder["report"]
    assert report.outcome == "ok"
    assert report.consistent is True, report.inconsistencies
    assert report.standby_consistency == {"node2": True}
    assert len(checked) == report.chunks >= 2
    for instance in copies:
        _assert_counts(instance.tenant("A"))


def test_size_accounting_reads_the_counter(env):
    tenant = TenantDatabase("T", env)
    tenant.create_table(_schema("t1"))
    table = tenant.table("t1")
    table.install_many(1, {key: {"k": key, "v": 0} for key in range(10)})
    table.install(3, 2, None)
    width = table.schema.row_width_bytes()
    assert tenant.row_count() == 9
    assert tenant.size_bytes() == 9 * width


@pytest.mark.parametrize("strategy", list(SnapshotStrategy))
def test_handover_reports_an_injected_one_row_divergence(env, strategy):
    cluster, middleware = build(env, nodes=3)
    source = cluster.node("node0").instance
    drive(env, setup_kv_tenant(source, "A", 12))
    source.tenant("A").fixed_overhead_mb = 4.0
    middleware.register_tenant("A", "node0")
    event = middleware.tracer.event

    def diverging_event(name, **attrs):
        if name == "migration.switched":
            # Verification runs next, before the simulation moves on.
            for node, value in (("node1", 7), ("node2", 8)):
                instance = cluster.node(node).instance
                instance.tenant("A").table("kv").install(
                    5, instance.next_csn(), {"k": 5, "v": value,
                                             "tag": "key5"})
        return event(name, **attrs)
    middleware.tracer.event = diverging_event
    report = drive(env, middleware.migrate(
        "A", "node1", MigrationOptions(rates=RATES, chunk_mb=1.0,
                                       strategy=strategy,
                                       standbys=("node2",))))
    assert report.outcome == "ok"
    assert report.consistent is False
    assert report.inconsistencies == [
        "table 'kv' key 5: master=(('k', 5), ('tag', 'key5'), ('v', 0)) "
        "slave=(('k', 5), ('tag', 'key5'), ('v', 7))"]
    assert report.standby_consistency == {"node2": False}


# ---------------------------------------------------------------------------
# the collector's view of a bulk load
# ---------------------------------------------------------------------------

#: Tracked objects a load may leave behind beyond its fixed chunk plan's
#: bookkeeping; per-row containers would add thousands between the sizes.
GC_SLACK = 64


def _kv_source(instance: DbmsInstance, tenant_name: str, rows: int) -> None:
    """``rows`` fresh rows on one unindexed table, at a fixed 4 MB."""
    tenant = instance.create_tenant(tenant_name)
    tenant.create_table(_schema("kv"))
    tenant.size_multiplier = 0.0
    tenant.fixed_overhead_mb = 4.0
    tenant.table("kv").install_many(instance.next_csn(), {
        key: {"k": key, "v": key} for key in range(rows)})


def _restore(rows: int):
    env = Environment()
    source = DbmsInstance(env, "src")
    _kv_source(source, "T", rows)

    def load():
        destination = DbmsInstance(env, "dst")
        snapshot = drive(env, dump(source, "T", source.current_csn(),
                                   RATES))
        drive(env, restore(destination, snapshot, RATES))
        return [destination]
    return load


def _restore_stream(rows: int):
    env = Environment()
    source = DbmsInstance(env, "src")
    _kv_source(source, "T", rows)

    def load():
        destination = DbmsInstance(env, "dst")
        sink = _ListSink(env)
        drive(env, dump_stream(source, "T", source.current_csn(), RATES,
                               sink, chunk_mb=1.0))
        drive(env, restore_stream(destination, _feed(env, sink.chunks),
                                  RATES))
        return [destination]
    return load


def _watermark(rows: int):
    env = Environment()
    cluster, middleware = build(env, nodes=3)
    _kv_source(cluster.node("node0").instance, "A", rows)
    middleware.register_tenant("A", "node0")

    def load():
        report = drive(env, middleware.migrate("A", "node1", MigrationOptions(
            rates=RATES, chunk_mb=1.0, strategy=SnapshotStrategy.WATERMARK,
            standbys=("node2",))))
        assert report.outcome == "ok" and report.consistent is True
        assert report.standby_consistency == {"node2": True}
        return [report]
    return load


def _tracked_growth(setup, rows: int) -> int:
    """Tracked objects a load adds, once the collector has run."""
    load = setup(rows)
    gc.collect()
    before = len(gc.get_objects())
    kept = load()
    gc.collect()
    growth = len(gc.get_objects()) - before
    del kept
    return growth


@pytest.mark.parametrize("setup", [_restore, _restore_stream, _watermark],
                         ids=["restore", "restore_stream", "watermark"])
def test_a_bulk_load_adds_no_tracked_object_per_row(setup):
    _tracked_growth(setup, 1000)  # warm-up: lazy imports and caches
    small = _tracked_growth(setup, 1000)
    large = _tracked_growth(setup, 4000)
    assert abs(large - small) <= GC_SLACK, (small, large)
