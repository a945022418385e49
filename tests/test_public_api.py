"""Public-API surface tests: everything README documents must import and
work from the top-level namespaces."""

from __future__ import annotations

import pytest


class TestTopLevelImports:
    def test_root_namespace(self) -> None:
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_core_namespace(self) -> None:
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name), f"repro.core.{name} missing"

    def test_version(self) -> None:
        import repro

        assert repro.__version__ == "1.2.0"


class TestReadmeQuickstart:
    """The exact code shown in the README must run."""

    def test_quickstart_snippet(self) -> None:
        from repro import QueryOptions, Session
        from repro.datasets.dblp import small_dblp

        session = Session.from_dataset(small_dblp())
        results = list(
            session.iter_keyword_query("Faloutsos", options=QueryOptions(l=15))
        )
        assert len(results) == 3
        for entry in results:
            assert entry.result.size == 15
            assert entry.result.render()

    def test_lower_level_entry_points(self, dblp_engine) -> None:
        from repro import QueryOptions

        os_tree = dblp_engine.complete_os("author", 0)
        assert os_tree.size > 0
        prelim, stats = dblp_engine.prelim_os("author", 0, l=10)
        assert prelim.size >= 10
        result = dblp_engine.run(
            "author", 0, QueryOptions(l=10, algorithm="top_path", source="prelim")
        )
        assert result.size == 10


class TestGdsApi:
    def test_node_lookup_and_has_node(self, dblp_engine) -> None:
        gds = dblp_engine.gds_for("author")
        assert gds.has_node("Paper")
        assert not gds.has_node("Nonexistent")
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            gds.node("Nonexistent")

    def test_root_table(self, dblp_engine) -> None:
        assert dblp_engine.gds_for("author").root_table == "author"

    def test_render_contains_annotations(self, dblp_engine) -> None:
        text = dblp_engine.gds_for("author").render()
        assert "af=" in text and "max=" in text and "mmax=" in text
