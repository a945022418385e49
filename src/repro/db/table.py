"""Row storage for a single table.

Rows are stored as immutable tuples in insertion order; the row id is the
position in that list.  A primary-key hash index is maintained automatically;
secondary indexes register themselves via :meth:`Table.attach_index` and are
kept current on insert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.db.schema import TableSchema
from repro.errors import IntegrityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.index import HashIndex


class Table:
    """A table: schema + rows + primary-key index."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        #: slot list; a deleted row leaves ``None`` behind so every live
        #: row id stays a stable array offset for the columnar tiers
        self._rows: list[tuple[Any, ...] | None] = []
        self._pk_to_row: dict[Any, int] = {}
        self._indexes: list["HashIndex"] = []
        self._deleted = 0
        #: monotone per-table mutation counter (insert/update/delete)
        self._mutations = 0
        #: content-fingerprint cache: (mutation count it was computed at, digest)
        self._content_fp: tuple[int, str] | None = None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(self, values: Mapping[str, Any] | Sequence[Any]) -> int:
        """Insert one row (mapping by column name, or positional sequence).

        Returns the new row id.  Validates types and primary-key uniqueness;
        foreign keys are validated at the :class:`~repro.db.database.Database`
        level (so bulk loads may insert parents and children in any order and
        call ``validate_integrity`` once).
        """
        schema = self.schema
        if isinstance(values, Mapping):
            row_list = []
            unknown = set(values) - {c.name for c in schema.columns}
            if unknown:
                raise IntegrityError(
                    f"unknown columns for table {schema.name!r}: {sorted(unknown)}"
                )
            for col in schema.columns:
                row_list.append(values.get(col.name))
        else:
            if len(values) != len(schema.columns):
                raise IntegrityError(
                    f"table {schema.name!r} expects {len(schema.columns)} values, "
                    f"got {len(values)}"
                )
            row_list = list(values)

        for idx, col in enumerate(schema.columns):
            row_list[idx] = col.type.validate(row_list[idx], nullable=col.nullable)

        pk_value = row_list[schema.pk_index]
        if pk_value in self._pk_to_row:
            raise IntegrityError(
                f"duplicate primary key {pk_value!r} in table {schema.name!r}"
            )

        row = tuple(row_list)
        row_id = len(self._rows)
        self._rows.append(row)
        self._pk_to_row[pk_value] = row_id
        for index in self._indexes:
            index.add_row(row_id, row)
        self._mutations += 1
        return row_id

    def update_row(
        self, row_id: int, changes: Mapping[str, Any]
    ) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
        """Update columns of one live row; returns ``(old_row, new_row)``.

        Primary-key changes are rejected: row ids and PK→row mappings are
        load-bearing for every derived structure (CSR offsets, importance
        arrays, snapshot arenas), so identity is immutable — delete and
        re-insert to rename a subject.  FK validity is the
        :class:`~repro.db.database.Database` transaction's job.
        """
        old_row = self._rows[row_id] if 0 <= row_id < len(self._rows) else None
        if old_row is None:
            raise IntegrityError(
                f"cannot update row {row_id} of table {self.schema.name!r}: "
                "no such live row"
            )
        schema = self.schema
        unknown = set(changes) - {c.name for c in schema.columns}
        if unknown:
            raise IntegrityError(
                f"unknown columns for table {schema.name!r}: {sorted(unknown)}"
            )
        row_list = list(old_row)
        for name, value in changes.items():
            idx = schema.column_index(name)
            col = schema.columns[idx]
            row_list[idx] = col.type.validate(value, nullable=col.nullable)
        if row_list[schema.pk_index] != old_row[schema.pk_index]:
            raise IntegrityError(
                f"primary-key updates are not supported (table "
                f"{schema.name!r}, row {row_id}): delete and re-insert"
            )
        new_row = tuple(row_list)
        self._apply_replace(row_id, old_row, new_row)
        return old_row, new_row

    def delete_row(self, row_id: int) -> tuple[Any, ...]:
        """Tombstone one live row; returns the old row tuple.

        The slot stays allocated (``len`` is unchanged) so existing row ids
        remain valid array offsets; referential integrity (no live row may
        still point at the tombstone) is checked at the transaction level.
        """
        old_row = self._rows[row_id] if 0 <= row_id < len(self._rows) else None
        if old_row is None:
            raise IntegrityError(
                f"cannot delete row {row_id} of table {self.schema.name!r}: "
                "no such live row"
            )
        self._rows[row_id] = None
        del self._pk_to_row[old_row[self.schema.pk_index]]
        for index in self._indexes:
            index.remove_row(row_id, old_row)
        self._deleted += 1
        self._mutations += 1
        return old_row

    # -- transaction rollback hooks (Database undo log only) ----------- #
    def _apply_replace(
        self, row_id: int, old_row: tuple[Any, ...], new_row: tuple[Any, ...]
    ) -> None:
        """Swap a live row's tuple in place, keeping indexes current."""
        self._rows[row_id] = new_row
        for index in self._indexes:
            index.remove_row(row_id, old_row)
            index.add_row(row_id, new_row)
        self._mutations += 1

    def _undo_insert(self, row_id: int) -> None:
        """Pop a just-inserted row (must still be the last slot)."""
        if row_id != len(self._rows) - 1:
            raise IntegrityError(
                f"cannot undo insert of row {row_id} in table "
                f"{self.schema.name!r}: not the last slot"
            )
        row = self._rows.pop()
        if row is not None:
            del self._pk_to_row[row[self.schema.pk_index]]
            for index in self._indexes:
                index.remove_row(row_id, row)
        self._mutations += 1

    def _undo_delete(self, row_id: int, old_row: tuple[Any, ...]) -> None:
        """Re-materialize a tombstoned row (transaction rollback)."""
        self._rows[row_id] = old_row
        self._pk_to_row[old_row[self.schema.pk_index]] = row_id
        for index in self._indexes:
            index.add_row(row_id, old_row)
        self._deleted -= 1
        self._mutations += 1

    def attach_index(self, index: "HashIndex") -> None:
        """Register a secondary index to be maintained on future inserts."""
        self._indexes.append(index)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Slot count (live rows + tombstones).

        Deliberately *not* the live-row count: ``len(table)`` sizes every
        columnar array (CSR forward arrays, importance vectors), and those
        are indexed by slot position.  Use :attr:`live_count` for the
        number of live rows.
        """
        return len(self._rows)

    @property
    def live_count(self) -> int:
        """Number of live (non-tombstoned) rows."""
        return len(self._rows) - self._deleted

    def is_deleted(self, row_id: int) -> bool:
        return 0 <= row_id < len(self._rows) and self._rows[row_id] is None

    @property
    def name(self) -> str:
        return self.schema.name

    def row(self, row_id: int) -> tuple[Any, ...]:
        """Return the full row tuple for *row_id* (must be live)."""
        row = self._rows[row_id]
        if row is None:
            raise IntegrityError(
                f"row {row_id} of table {self.schema.name!r} is deleted"
            )
        return row

    def value(self, row_id: int, column: str) -> Any:
        """Return a single column value of a row."""
        return self.row(row_id)[self.schema.column_index(column)]

    def pk_of_row(self, row_id: int) -> Any:
        """Return the primary-key value of *row_id*."""
        return self.row(row_id)[self.schema.pk_index]

    def row_id_for_pk(self, pk_value: Any) -> int:
        """Resolve a primary-key value to its row id (KeyError if absent)."""
        return self._pk_to_row[pk_value]

    def has_pk(self, pk_value: Any) -> bool:
        return pk_value in self._pk_to_row

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Iterate over live (row_id, row) pairs in insertion order."""
        return (
            (row_id, row)
            for row_id, row in enumerate(self._rows)
            if row is not None
        )

    def content_fingerprint(self) -> str:
        """SHA-256 over the full slot contents, in row-id order.

        Cached at a mutation count: any insert/update/delete bumps the
        per-table counter and invalidates the digest.  Tombstones hash as
        ``None`` slots, so a delete changes the fingerprint even though the
        slot count does not.  This is what keeps snapshot attach-time
        validation (:mod:`repro.persist.fingerprint`) O(1) for tables that
        have not changed since the last computation, the way a DBMS
        compares a catalog version instead of re-reading every page.
        """
        import hashlib

        if self._content_fp is None or self._content_fp[0] != self._mutations:
            h = hashlib.sha256()
            # Chunked repr: one C-level repr per slice keeps the hash fast
            # without materialising the whole table as a single transient
            # string (bounded extra memory for large tables).
            for start in range(0, len(self._rows), 4096):
                h.update(repr(self._rows[start : start + 4096]).encode("utf-8"))
                h.update(b"\x1f")
            self._content_fp = (self._mutations, h.hexdigest())
        return self._content_fp[1]

    def row_as_dict(self, row_id: int) -> dict[str, Any]:
        """Return a row as a column-name keyed dict (for display/CSV)."""
        row = self.row(row_id)
        return {c.name: row[i] for i, c in enumerate(self.schema.columns)}

    def __repr__(self) -> str:
        return (
            f"Table({self.schema.name!r}, rows={self.live_count}, "
            f"slots={len(self._rows)})"
        )
