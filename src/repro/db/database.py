"""The database catalog: tables, foreign keys, indexes, integrity checks."""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, Sequence

from repro.db.index import HashIndex
from repro.db.mutation import CommitResult, Delete, Insert, RowChange, Update
from repro.db.schema import ForeignKey, TableSchema
from repro.db.table import Table
from repro.errors import IntegrityError, SchemaError, UnknownTableError


class Database:
    """An embedded relational database.

    Responsibilities:

    * catalog of :class:`~repro.db.table.Table` objects keyed by name;
    * foreign-key registry (populated from table schemas on creation);
    * hash-index management (``index_on`` creates or returns an index);
    * referential-integrity validation (:meth:`validate_integrity`).

    The database itself is query-agnostic; the statement templates used by
    the OS algorithms live in :class:`~repro.db.query.QueryInterface`.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        self._index_lock = threading.Lock()
        #: monotone dataset version, bumped once per committed transaction
        #: (bulk loads via :meth:`insert`/:meth:`insert_many` do not bump
        #: it — version 0 means "as built", which is what keeps response
        #: bodies byte-identical across topologies until a write happens)
        self._data_version = 0
        self._txn_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Catalog
    # ------------------------------------------------------------------ #
    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from *schema*; FK targets must already exist."""
        if schema.name in self._tables:
            raise SchemaError(f"table already exists: {schema.name!r}")
        for fk in schema.foreign_keys:
            if fk.ref_table not in self._tables and fk.ref_table != schema.name:
                raise SchemaError(
                    f"table {schema.name!r} references unknown table {fk.ref_table!r}"
                )
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    @property
    def total_rows(self) -> int:
        """Total tuple count across all tables (the paper reports these)."""
        return sum(len(t) for t in self._tables.values())

    # ------------------------------------------------------------------ #
    # Foreign keys
    # ------------------------------------------------------------------ #
    def foreign_keys(self) -> list[tuple[str, ForeignKey]]:
        """All (owning_table, fk) pairs in the database."""
        pairs: list[tuple[str, ForeignKey]] = []
        for table in self._tables.values():
            for fk in table.schema.foreign_keys:
                pairs.append((table.name, fk))
        return pairs

    def foreign_keys_into(self, table_name: str) -> list[tuple[str, ForeignKey]]:
        """All (owning_table, fk) pairs whose FK references *table_name*."""
        self.table(table_name)  # raise on unknown table
        return [
            (owner, fk)
            for owner, fk in self.foreign_keys()
            if fk.ref_table == table_name
        ]

    # ------------------------------------------------------------------ #
    # Indexes
    # ------------------------------------------------------------------ #
    def index_on(self, table_name: str, column: str) -> HashIndex:
        """Create (or return the existing) hash index on table.column."""
        key = (table_name, column)
        index = self._indexes.get(key)
        if index is None:
            # Double-checked: concurrent Session workers must not each pay
            # (or race) the O(n) index build on a cold column.
            with self._index_lock:
                index = self._indexes.get(key)
                if index is None:
                    index = HashIndex(self.table(table_name), column)
                    self._indexes[key] = index
        return index

    def ensure_fk_indexes(self) -> None:
        """Index every FK column and every referenced PK (loader helper)."""
        for owner, fk in self.foreign_keys():
            self.index_on(owner, fk.column)

    # ------------------------------------------------------------------ #
    # Bulk load + integrity
    # ------------------------------------------------------------------ #
    def insert(self, table_name: str, values: Mapping[str, Any] | Sequence[Any]) -> int:
        return self.table(table_name).insert(values)

    def insert_many(
        self, table_name: str, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> list[int]:
        table = self.table(table_name)
        return [table.insert(row) for row in rows]

    # ------------------------------------------------------------------ #
    # Transactional mutation
    # ------------------------------------------------------------------ #
    @property
    def data_version(self) -> int:
        return self._data_version

    def update(self, table_name: str, pk: Any, changes: Mapping[str, Any]) -> CommitResult:
        """Update one row (by primary key) as a single-op transaction."""
        return self.apply_transaction([Update(table_name, pk, changes)])

    def delete(self, table_name: str, pk: Any) -> CommitResult:
        """Delete one row (by primary key) as a single-op transaction."""
        return self.apply_transaction([Delete(table_name, pk)])

    def apply_transaction(
        self, operations: "Sequence[Insert | Update | Delete]"
    ) -> CommitResult:
        """Apply *operations* in order, atomically.

        Each op sees the state left by the previous ones (an insert may
        reference a row inserted earlier in the same transaction; a delete
        frees its PK for re-insertion).  After the last op, scoped FK
        integrity is checked: every touched row's outgoing FKs must
        resolve, and no deleted row may still be referenced by a live row
        (FK-restrict).  Any failure — validation, duplicate PK, dangling
        FK — rolls every op back via the undo log and re-raises; the
        database is exactly as it was.

        On success the dataset version is bumped and returned with the
        ordered :class:`~repro.db.mutation.RowChange` records.
        """
        if not operations:
            raise IntegrityError("a transaction needs at least one operation")
        with self._txn_lock:
            changes: list[RowChange] = []
            try:
                for op in operations:
                    changes.append(self._apply_one(op))
                self._check_touched(changes)
            except Exception:
                for change in reversed(changes):
                    self._undo_one(change)
                raise
            self._data_version += 1
            return CommitResult(self._data_version, tuple(changes))

    def _apply_one(self, op: "Insert | Update | Delete") -> RowChange:
        if isinstance(op, Insert):
            table = self.table(op.table)
            row_id = table.insert(op.values)
            return RowChange("insert", op.table, row_id, None, table.row(row_id))
        if isinstance(op, Update):
            table = self.table(op.table)
            row_id = self._resolve_pk(table, op.pk)
            old_row, new_row = table.update_row(row_id, op.changes)
            return RowChange("update", op.table, row_id, old_row, new_row)
        if isinstance(op, Delete):
            table = self.table(op.table)
            row_id = self._resolve_pk(table, op.pk)
            old_row = table.delete_row(row_id)
            return RowChange("delete", op.table, row_id, old_row, None)
        raise IntegrityError(f"unknown mutation operation: {op!r}")

    @staticmethod
    def _resolve_pk(table: Table, pk: Any) -> int:
        try:
            return table.row_id_for_pk(pk)
        except KeyError:
            raise IntegrityError(
                f"no row with primary key {pk!r} in table {table.name!r}"
            ) from None

    def _undo_one(self, change: RowChange) -> None:
        table = self.table(change.table)
        if change.op == "insert":
            table._undo_insert(change.row_id)
        elif change.op == "update":
            assert change.old_row is not None and change.new_row is not None
            table._apply_replace(change.row_id, change.new_row, change.old_row)
        else:  # delete
            assert change.old_row is not None
            table._undo_delete(change.row_id, change.old_row)

    def _check_touched(self, changes: "list[RowChange]") -> None:
        """Scoped FK integrity over the transaction's end state.

        O(changes × FKs), not O(database): outgoing FKs are checked per
        touched live row, and incoming references to deleted rows are
        checked through hash indexes on the referencing columns (built on
        demand; FK columns are typically indexed already).
        """
        for change in changes:
            table = self.table(change.table)
            if change.new_row is not None and not table.is_deleted(change.row_id):
                # a later op may have re-updated or deleted this row; check
                # the *current* tuple, not the one this change installed
                row = table.row(change.row_id)
                for fk in table.schema.foreign_keys:
                    value = row[table.schema.column_index(fk.column)]
                    if value is None:
                        continue
                    if not self.table(fk.ref_table).has_pk(value):
                        raise IntegrityError(
                            f"dangling FK: {change.table}.{fk.column}={value!r} "
                            f"(row {change.row_id}) has no match in {fk.ref_table}"
                        )
            if change.op == "delete" and change.old_row is not None:
                if table.is_deleted(change.row_id):
                    pk_value = change.old_row[table.schema.pk_index]
                    if table.has_pk(pk_value):
                        continue  # pk re-inserted later in this transaction
                    for owner, fk in self.foreign_keys_into(change.table):
                        if self.index_on(owner, fk.column).lookup(pk_value):
                            raise IntegrityError(
                                f"cannot delete {change.table} pk={pk_value!r}: "
                                f"still referenced by {owner}.{fk.column}"
                            )

    def validate_integrity(self) -> None:
        """Check every FK value resolves to an existing referenced PK.

        Raises :class:`~repro.errors.IntegrityError` naming the first
        dangling reference found.  NULL FK values are permitted (SQL
        semantics for nullable FK columns).
        """
        for owner_name, fk in self.foreign_keys():
            owner = self.table(owner_name)
            target = self.table(fk.ref_table)
            if fk.ref_column != target.schema.primary_key:
                raise IntegrityError(
                    f"FK {owner_name}.{fk.column} must reference the primary key "
                    f"of {fk.ref_table!r} ({target.schema.primary_key!r}), "
                    f"not {fk.ref_column!r}"
                )
            col_idx = owner.schema.column_index(fk.column)
            for row_id, row in owner.scan():
                value = row[col_idx]
                if value is None:
                    continue
                if not target.has_pk(value):
                    raise IntegrityError(
                        f"dangling FK: {owner_name}.{fk.column}={value!r} "
                        f"(row {row_id}) has no match in {fk.ref_table}"
                    )

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={len(self._tables)}, rows={self.total_rows})"
