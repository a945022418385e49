"""Schema objects: columns, foreign keys, and table schemas."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.types import ColumnType
from repro.errors import SchemaError, UnknownColumnError


@dataclass(frozen=True)
class Column:
    """A typed column.

    ``text_searchable`` marks columns that feed the keyword inverted index
    (e.g. author names, paper titles); ``display`` marks columns rendered in
    OS output (the attribute-selection θ′ of Section 2.1 operates on these).
    """

    name: str
    type: ColumnType
    nullable: bool = False
    text_searchable: bool = False
    display: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key: ``column`` of the owning table references
    ``ref_table.ref_column`` (which must be that table's primary key)."""

    column: str
    ref_table: str
    ref_column: str


class TableSchema:
    """Schema of a single table: ordered columns, a primary key, and FKs."""

    def __init__(
        self,
        name: str,
        columns: list[Column],
        primary_key: str,
        foreign_keys: list[ForeignKey] | None = None,
    ) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns = list(columns)
        self._index_of = {c.name: i for i, c in enumerate(columns)}
        if primary_key not in self._index_of:
            raise UnknownColumnError(name, primary_key)
        if columns[self._index_of[primary_key]].nullable:
            raise SchemaError(f"primary key {primary_key!r} of {name!r} is nullable")
        self.primary_key = primary_key
        self.foreign_keys = list(foreign_keys or [])
        for fk in self.foreign_keys:
            if fk.column not in self._index_of:
                raise UnknownColumnError(name, fk.column)

    def column_index(self, column: str) -> int:
        """Return the positional index of *column*; raises on unknown names."""
        try:
            return self._index_of[column]
        except KeyError:
            raise UnknownColumnError(self.name, column) from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def pk_index(self) -> int:
        return self._index_of[self.primary_key]

    def display_columns(self) -> list[Column]:
        """Columns rendered in OS output (non-key, display-flagged)."""
        fk_cols = {fk.column for fk in self.foreign_keys}
        return [
            c
            for c in self.columns
            if c.display and c.name != self.primary_key and c.name not in fk_cols
        ]

    def searchable_columns(self) -> list[Column]:
        """Columns indexed for keyword search."""
        return [c for c in self.columns if c.text_searchable]

    def __repr__(self) -> str:
        cols = ", ".join(c.name for c in self.columns)
        return f"TableSchema({self.name!r}, [{cols}], pk={self.primary_key!r})"
