"""Tenant databases: tables of row versions plus secondary indexes.

One :class:`TenantDatabase` is one customer's database inside a shared
DBMS process (the shared process model of Curino et al. that the paper
assumes).  It owns a catalog, the MVCC heap, secondary indexes, a lock
table, and size accounting used by the migration experiments.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Hashable, Iterator, KeysView,
                    Mapping, Optional, Tuple)

from ..errors import SchemaError
from .mvcc import Row, SecondaryIndex, VersionChain
from .schema import Catalog, TableSchema

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from .locks import LockTable


class Table:
    """Heap + indexes of one table inside a tenant database.

    Each key's newest committed version sits in two flat dicts, key ->
    row (``None`` for a tombstone) and key -> CSN; only a superseded
    version moves to the key's :class:`VersionChain` history.  Python's
    cyclic collector does not track a row dict of atomic values, so a
    key written once costs it nothing.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._heads: Dict[Hashable, Optional[Row]] = {}
        self._head_csns: Dict[Hashable, int] = {}
        #: key -> the superseded versions, ascending by CSN.
        self._history: Dict[Hashable, VersionChain] = {}
        self.indexes: Dict[str, SecondaryIndex] = {
            name: SecondaryIndex(column)
            for name, column in schema.indexes.items()
        }
        #: Keys whose latest committed version is a row (not a
        #: tombstone); kept by :meth:`install` and :meth:`install_many`
        #: so size accounting never rescans the heap.
        self._live_rows = 0

    # ------------------------------------------------------------------
    def keys(self) -> KeysView[Hashable]:
        """Every key ever written, tombstoned ones included."""
        return self._heads.keys()

    def read(self, key: Hashable, snapshot_csn: int) -> Optional[Row]:
        """Newest version of ``key`` visible at ``snapshot_csn``."""
        csn = self._head_csns.get(key)
        if csn is not None and snapshot_csn >= csn:  # read-latest
            return self._heads[key]
        older = self._history.get(key)
        return older.read(snapshot_csn) if older is not None else None

    def latest(self, key: Hashable) -> Optional[Row]:
        """The newest committed version of ``key`` (None if absent)."""
        return self._heads.get(key)

    def latest_csn(self, key: Hashable) -> int:
        """CSN of the newest committed version of ``key``, 0 if none."""
        return self._head_csns.get(key, 0)

    def chain(self, key: Hashable) -> Optional[VersionChain]:
        """A copy of ``key``'s versions, or None if never written."""
        if key not in self._heads:
            return None
        chain = VersionChain()
        older = self._history.get(key)
        if older is not None:
            chain.csns, chain.rows = older.csns[:], older.rows[:]
        chain.install(self._head_csns[key], self._heads[key])
        return chain

    def install(self, key: Hashable, csn: int, row: Optional[Row]) -> None:
        """Install a committed version and maintain secondary indexes."""
        old = None
        if key in self._heads:
            head_csn = self._head_csns[key]
            if csn <= head_csn:
                raise ValueError("non-monotonic CSN %d after %d"
                                 % (csn, head_csn))
            old = self._heads[key]
            older = self._history.get(key)
            if older is None:
                older = self._history[key] = VersionChain()
            older.install(head_csn, old)
        self._heads[key] = row
        self._head_csns[key] = csn
        self._live_rows += (row is not None) - (old is not None)
        for index in self.indexes.values():
            if old is not None:
                index.remove(old.get(index.column), key)
            if row is not None:
                index.add(row.get(index.column), key)

    def install_many(self, csn: int, rows: Mapping[Hashable, Row]) -> None:
        """Bulk-load copies of the live ``rows`` as committed at ``csn``.

        The one row-load path of restores and watermark chunk installs.
        Rows of keys never written before become heads in one pass; if
        any key already has a version, or the table has secondary
        indexes, every row goes through :meth:`install` and its
        monotonic-CSN and index maintenance.
        """
        if self.indexes or not self._heads.keys().isdisjoint(rows):
            for key, row in rows.items():
                self.install(key, csn, dict(row))
            return
        self._heads.update(zip(rows, map(dict, rows.values())))
        self._head_csns.update(dict.fromkeys(rows, csn))
        self._live_rows += len(rows)

    def create_index(self, index_name: str, column: str) -> None:
        """Build a new secondary index over the latest committed versions."""
        self.schema.add_index(index_name, column)
        index = SecondaryIndex(column)
        for key, row in self.latest_rows():
            index.add(row.get(column), key)
        self.indexes[index_name] = index

    # ------------------------------------------------------------------
    def latest_rows(self) -> Iterator[Tuple[Hashable, Row]]:
        """Iterate over (key, latest committed row), skipping tombstones."""
        for key, row in self._heads.items():
            if row is not None:
                yield key, row

    def visible_rows(self, snapshot_csn: int
                     ) -> Iterator[Tuple[Hashable, Row]]:
        """Iterate over rows visible at ``snapshot_csn``."""
        heads = self._heads
        for key, csn in self._head_csns.items():
            row = (heads[key] if snapshot_csn >= csn
                   else self.read(key, snapshot_csn))
            if row is not None:
                yield key, row

    def latest_row_map(self) -> Dict[Hashable, Row]:
        """``{key: latest committed row}``, tombstones left out."""
        return {key: row for key, row in self._heads.items()
                if row is not None}

    def live_row_count(self) -> int:
        """Number of non-deleted rows in the latest committed state."""
        return self._live_rows


class TenantDatabase:
    """One tenant: catalog + tables + lock table + size accounting."""

    def __init__(self, name: str, env: "Environment"):
        from .locks import LockTable

        self.name = name
        self.env = env
        self.catalog = Catalog()
        self.tables: Dict[str, Table] = {}
        self.locks: LockTable = LockTable(env)
        #: Fixed per-database footprint (catalogs, WAL segments, FSM).
        #: Table 3's sizes imply ~200 MB of it on the paper's setup.
        self.fixed_overhead_mb: float = 0.0
        #: Nominal-size multiplier: workloads populated at a row-count
        #: scale of 1/N set this to N so dump/restore timing still sees
        #: the full-scale database size the paper used.
        self.size_multiplier: float = 1.0
        # counters used by experiments
        self.committed_updates = 0
        self.committed_readonly = 0
        self.aborted = 0

    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> None:
        """Register the schema and allocate its heap."""
        self.catalog.create_table(schema)
        self.tables[schema.name] = Table(schema)

    def table(self, name: str) -> Table:
        """Look up a table; raises :class:`SchemaError` if unknown."""
        table = self.tables.get(name)
        if table is None:
            raise SchemaError("tenant %r has no table %r"
                              % (self.name, name))
        return table

    def has_table(self, name: str) -> bool:
        """Whether the tenant defines table ``name``."""
        return name in self.tables

    def install_many(self, csn: int,
                     rows: Mapping[str, Mapping[Hashable, Row]]) -> None:
        """Bulk-load ``{table: {key: row}}`` copies at ``csn``."""
        for table_name, table_rows in rows.items():
            self.table(table_name).install_many(csn, table_rows)

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Nominal on-disk size from row counts and schema widths."""
        total = 0
        for table in self.tables.values():
            total += table.live_row_count() * table.schema.row_width_bytes()
        return int(total * self.size_multiplier
                   + self.fixed_overhead_mb * 1e6)

    def size_mb(self) -> float:
        """Size in megabytes (10^6 bytes, as in the paper's 800 MB)."""
        return self.size_bytes() / 1e6

    def row_count(self) -> int:
        """Total live rows across all tables."""
        return sum(t.live_row_count() for t in self.tables.values())

    # ------------------------------------------------------------------
    def state_fingerprint(self) -> Dict[str, Dict[Hashable, Tuple]]:
        """Canonical logical state: table -> key -> sorted row items.

        Used by the consistency checker (Theorem 2): after switch-over the
        slave's fingerprint must equal the master's.
        """
        state: Dict[str, Dict[Hashable, Tuple]] = {}
        for name, table in self.tables.items():
            rows: Dict[Hashable, Tuple] = {}
            for key, row in table.latest_rows():
                rows[key] = tuple(sorted(row.items()))
            state[name] = rows
        return state
