"""``Table``'s head + history heap against a reference version list.

The reference keeps, per key, every committed ``(csn, row)`` version in
install order, and answers each question by a linear scan.  Random
install, tombstone, re-insert and bulk-load sequences run over one
plain or indexed ``Table``; after every step the heads, the version
counts, the live-row counter and the secondary-index postings must
match the reference, and at the end every snapshot read at every CSN
must too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Table
from repro.engine.schema import TableSchema
from repro.engine.sqlmini import ColumnDef

Version = Tuple[int, Optional[Dict[str, Any]]]


def _schema(indexed: bool) -> TableSchema:
    schema = TableSchema("t", (ColumnDef("k", "INT", True),
                               ColumnDef("v", "INT")))
    if indexed:
        schema.add_index("idx_v", "v")
    return schema


def reference_read(versions: List[Version], snapshot_csn: int):
    """Newest version at or below the snapshot, by a linear scan."""
    row = None
    for csn, image in versions:
        if csn <= snapshot_csn:
            row = image
    return row


def _check_heads(table: Table, model: Dict[int, List[Version]],
                 indexed: bool) -> None:
    for key in range(-1, 20):
        versions = model.get(key, [])
        assert table.latest(key) == (versions[-1][1] if versions
                                     else None)
        assert table.latest_csn(key) == (versions[-1][0] if versions
                                         else 0)
        chain = table.chain(key)
        if versions:
            assert chain.version_count() == len(versions)
            assert list(zip(chain.csns, chain.rows)) == versions
        else:
            assert chain is None
    live = {key: versions[-1][1] for key, versions in model.items()
            if versions[-1][1] is not None}
    assert table.live_row_count() == len(live)
    assert table.latest_row_map() == live
    assert list(table.keys()) == list(model)
    if indexed:
        postings: Dict[Any, set] = {}
        for key, row in live.items():
            postings.setdefault(row["v"], set()).add(key)
        assert table.indexes["idx_v"].entries == postings


#: One step: a row install or tombstone of one key, or a bulk load of
#: several keys at one CSN.
steps = st.one_of(
    st.tuples(st.just("install"), st.integers(0, 12),
              st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("bulk"), st.dictionaries(st.integers(0, 18),
                                               st.integers(0, 4),
                                               max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(steps, max_size=40), indexed=st.booleans())
def test_heap_matches_the_version_list_reference(ops, indexed):
    table = Table(_schema(indexed))
    model: Dict[int, List[Version]] = {}
    csn = 0
    for op in ops:
        csn += 1
        if op[0] == "install":
            _op, key, value = op
            row = None if value is None else {"k": key, "v": value}
            table.install(key, csn, row)
            model.setdefault(key, []).append((csn, row))
        else:
            rows = {key: {"k": key, "v": value}
                    for key, value in op[1].items()}
            table.install_many(csn, rows)
            for key, row in rows.items():
                model.setdefault(key, []).append((csn, dict(row)))
        _check_heads(table, model, indexed)
    for snapshot in range(csn + 2):
        for key in range(-1, 20):
            assert (table.read(key, snapshot)
                    == reference_read(model.get(key, []), snapshot))
        assert dict(table.visible_rows(snapshot)) == {
            key: row for key, versions in model.items()
            if (row := reference_read(versions, snapshot)) is not None}


def test_a_once_written_key_reads_only_its_head():
    table = Table(_schema(False))
    table.install_many(1, {key: {"k": key, "v": 0} for key in range(5)})
    table.install(7, 2, {"k": 7, "v": 0})
    assert all(table.chain(key).version_count() == 1
               for key in table.keys())
    assert table.read(3, 0) is None
    assert table.read(3, 1) == {"k": 3, "v": 0}


def test_a_stale_csn_leaves_the_key_untouched():
    table = Table(_schema(True))
    table.install(1, 5, {"k": 1, "v": 2})
    with pytest.raises(ValueError):
        table.install(1, 5, {"k": 1, "v": 3})
    assert table.latest(1) == {"k": 1, "v": 2}
    assert table.chain(1).version_count() == 1
    assert table.indexes["idx_v"].entries == {2: {1}}
