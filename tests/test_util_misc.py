"""Tests for RNG derivation and table rendering."""

from __future__ import annotations

from repro.util.rng import derive_rng
from repro.util.text import format_table


class TestRng:
    def test_derive_rng_deterministic(self) -> None:
        a = derive_rng(7, "dblp", "paper").integers(1_000_000)
        b = derive_rng(7, "dblp", "paper").integers(1_000_000)
        assert a == b

    def test_derive_rng_streams_are_independent(self) -> None:
        a = derive_rng(7, "stream", 1).integers(1_000_000)
        b = derive_rng(7, "stream", 2).integers(1_000_000)
        assert a != b  # astronomically unlikely to collide

    def test_derive_rng_label_order_matters(self) -> None:
        a = derive_rng(7, "a", "b").integers(1_000_000)
        b = derive_rng(7, "b", "a").integers(1_000_000)
        assert a != b


class TestText:
    def test_format_table_alignment(self) -> None:
        table = format_table(["name", "value"], [["x", 1.5], ["longer", 2.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.500" in table and "2.250" in table

    def test_format_table_widens_for_long_cells(self) -> None:
        table = format_table(["h"], [["wide-cell-content"]])
        header, rule, row = table.splitlines()
        assert len(rule) == len("wide-cell-content")
