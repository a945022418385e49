"""A real SQL generation backend: FK joins executed as SQLite statements.

Registered as ``sqlite`` in the PR 1 backend registry, this replaces the
simulated 100us/IO cost model of the ``database`` backend with honest
accounting: every executed SQL statement bills exactly one IO access
(and its fetched row count) through the engine's shared
:class:`~repro.db.query.QueryInterface.count_io` — so deadline checks,
``db.io`` fault injection, and the per-query ``ResultStats`` IO counters
all keep working unchanged.

The statement templates mirror the paper's cost model one-for-one with
:class:`~repro.core.generation.DatabaseBackend`:

* ``RefJoin`` — one join from the parent slot to the target PK (a NULL
  FK still executes, and still bills, one statement);
* ``ReverseJoin`` — one indexed select of child slots ordered by
  ``repro_row_id`` (ascending row order, the hash-index/CSR order);
* ``JunctionJoin`` — one two-hop join through the junction table,
  ordered by junction slot, with the co-author origin exclusion pushed
  into the WHERE clause.

Results are row ids (``repro_row_id`` is slot identity — see
:mod:`repro.storage.sqlio`), so trees generated through SQL are
node-for-node identical to the in-memory backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.generation import top_children
from repro.core.registry import register_backend
from repro.db.database import Database
from repro.errors import SummaryError
from repro.ranking.store import ImportanceStore
from repro.schema_graph.gds import GDSNode, JunctionJoin, RefJoin, ReverseJoin
from repro.storage.sqlio import SQLiteMirror, mirror_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import SizeLEngine


def _q(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


class SQLiteBackend:
    """Child fetches via SQL statements against the database's SQLite twin."""

    def __init__(self, engine: "SizeLEngine") -> None:
        self.engine = engine
        self._db = engine.db
        self.qi = engine.query_interface
        self.mirror: SQLiteMirror = mirror_for(engine.db)
        #: statement-template cache keyed by (parent_table, id(join_spec))
        self._sql: dict[tuple[str, int], str] = {}

    @property
    def db(self) -> Database:
        return self._db

    @property
    def io_accesses(self) -> int:
        return self.qi.io_accesses

    # ------------------------------------------------------------------ #
    # Statement templates
    # ------------------------------------------------------------------ #
    def _template(self, parent_table: str, gds_child: GDSNode) -> str:
        join = gds_child.join
        assert join is not None
        key = (parent_table, id(join))
        sql = self._sql.get(key)
        if sql is not None:
            return sql
        if isinstance(join, RefJoin):
            target_pk = self._db.table(join.target_table).schema.primary_key
            sql = (
                f"SELECT t.repro_row_id FROM {_q(join.target_table)} t "
                f"JOIN {_q(parent_table)} p ON t.{_q(target_pk)} = p.{_q(join.fk_column)} "
                f"WHERE p.repro_row_id = ?"
            )
        elif isinstance(join, ReverseJoin):
            parent_pk = self._db.table(parent_table).schema.primary_key
            sql = (
                f"SELECT c.repro_row_id FROM {_q(join.child_table)} c "
                f"JOIN {_q(parent_table)} p ON c.{_q(join.fk_column)} = p.{_q(parent_pk)} "
                f"WHERE p.repro_row_id = ? ORDER BY c.repro_row_id"
            )
        elif isinstance(join, JunctionJoin):
            parent_pk = self._db.table(parent_table).schema.primary_key
            target_pk = self._db.table(join.target_table).schema.primary_key
            sql = (
                f"SELECT t.repro_row_id FROM {_q(join.junction_table)} j "
                f"JOIN {_q(parent_table)} p ON j.{_q(join.from_column)} = p.{_q(parent_pk)} "
                f"JOIN {_q(join.target_table)} t ON t.{_q(target_pk)} = j.{_q(join.to_column)} "
                f"WHERE p.repro_row_id = ? ORDER BY j.repro_row_id"
            )
        else:  # pragma: no cover - exhaustive over JoinSpec
            raise SummaryError(f"unknown join spec: {join!r}")
        self._sql[key] = sql
        return sql

    def _select(self, sql: str, params: tuple) -> list[int]:
        rows = self.mirror.execute(sql, params)
        # One executed statement == one IO access (fault injection and
        # deadline checks ride the same call, like every other backend).
        self.qi.count_io(rows_fetched=len(rows))
        return [row[0] for row in rows]

    # ------------------------------------------------------------------ #
    # GenerationBackend protocol
    # ------------------------------------------------------------------ #
    def children(
        self, gds_child: GDSNode, parent_row: int, origin_row: int | None
    ) -> list[int]:
        assert gds_child.parent is not None
        sql = self._template(gds_child.parent.table, gds_child)
        if isinstance(gds_child.join, JunctionJoin) and origin_row is not None:
            return self._select(
                sql.replace(
                    "WHERE p.repro_row_id = ?",
                    "WHERE p.repro_row_id = ? AND t.repro_row_id != ?",
                ),
                (parent_row, origin_row),
            )
        return self._select(sql, (parent_row,))

    def children_top(
        self,
        gds_child: GDSNode,
        parent_row: int,
        origin_row: int | None,
        store: ImportanceStore,
        threshold: float,
        limit: int,
    ) -> list[int]:
        # One statement fetches the candidates; the li > threshold filter
        # and the (score desc, row asc) order are applied client-side,
        # exactly as DatabaseBackend.children_top / select_top_where_eq do.
        rows = self.children(gds_child, parent_row, origin_row)
        return top_children(gds_child, rows, store, threshold, limit)


@register_backend("sqlite")
def _sqlite_backend(engine: "SizeLEngine") -> SQLiteBackend:
    return SQLiteBackend(engine)
