"""Tests for OS generation (Algorithm 5) and backend equivalence."""

from __future__ import annotations

import pytest

from repro.core.generation import DatabaseBackend, DataGraphBackend, generate_os
from repro.db.query import QueryInterface
from repro.errors import SummaryError


def _tree_signature(tree) -> list[tuple[str, int, int]]:
    """Structure signature independent of uid assignment order."""
    return sorted(
        (node.gds.label, node.row_id, node.parent.row_id if node.parent else -1)
        for node in tree.to_object_summary().nodes
    )


class TestGeneration:
    def test_root_is_tds(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0)
        assert tree.gds_node(0).table == "author"
        assert tree.row_id[0] == 0
        assert tree.depth[0] == 0

    def test_children_follow_gds(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0)
        for child in range(1, tree.size):
            assert tree.gds_node(child).parent is tree.gds_node(tree.parent[child])

    def test_weights_are_local_importance(self, dblp_engine, dblp_store) -> None:
        tree = dblp_engine.complete_os("author", 0).to_object_summary()
        for node in tree.nodes[:50]:
            expected = dblp_store.importance(node.table, node.row_id) * node.gds.affinity
            assert node.weight == pytest.approx(expected)

    def test_backends_produce_identical_trees(self, dblp_engine) -> None:
        via_graph = dblp_engine.complete_os("author", 1, backend="datagraph")
        via_db = dblp_engine.complete_os("author", 1, backend="database")
        assert _tree_signature(via_graph) == _tree_signature(via_db)

    def test_backends_agree_on_tpch(self, tpch_engine) -> None:
        via_graph = tpch_engine.complete_os("customer", 3, backend="datagraph")
        via_db = tpch_engine.complete_os("customer", 3, backend="database")
        assert _tree_signature(via_graph) == _tree_signature(via_db)

    def test_database_backend_counts_io(self, dblp_engine) -> None:
        dblp_engine.query_interface.reset_counters()
        dblp_engine.complete_os("author", 0, backend="database")
        assert dblp_engine.query_interface.io_accesses > 0

    def test_depth_limit(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0, depth_limit=1)
        assert tree.max_depth() <= 1
        full = dblp_engine.complete_os("author", 0)
        assert tree.size < full.size

    def test_max_nodes_guard(self, dblp_engine, dblp_store) -> None:
        gds = dblp_engine.gds_for("author")
        for kind in ("datagraph", "database"):
            backend = dblp_engine.backend(kind)
            with pytest.raises(SummaryError, match="max_nodes"):
                generate_os(0, gds, backend, dblp_store, max_nodes=5)

    def test_coauthor_excludes_the_data_subject(self, dblp_engine) -> None:
        """Example 4/5: Christos never appears as his own co-author."""
        tree = dblp_engine.complete_os("author", 0).to_object_summary()
        for node in tree.nodes:
            if node.gds.label == "Co_Author":
                assert node.row_id != tree.root.row_id

    def test_coauthors_of_joint_paper_present(self, dblp_engine, dblp) -> None:
        """Paper 0 is co-authored by the whole family: Christos's OS must
        show Michalis and Petros as co-authors under it."""
        tree = dblp_engine.complete_os("author", 0).to_object_summary()
        author_table = dblp.db.table("author")
        coauthor_pks = {
            author_table.pk_of_row(node.row_id)
            for node in tree.nodes
            if node.gds.label == "Co_Author" and node.parent.row_id == 0
        }
        assert {1, 2} <= coauthor_pks  # Michalis, Petros

    def test_multiple_occurrences_of_same_tuple_allowed(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0).to_object_summary()
        seen: dict[tuple[str, int], int] = {}
        for node in tree.nodes:
            key = (node.table, node.row_id)
            seen[key] = seen.get(key, 0) + 1
        assert max(seen.values()) > 1  # prolific co-authors repeat

    def test_prelim_kind_flag(self, dblp_engine) -> None:
        complete = dblp_engine.complete_os("author", 0)
        prelim, _stats = dblp_engine.prelim_os("author", 0, 10)
        assert complete.kind == "complete"
        assert prelim.kind == "prelim"


class TestBackendUnits:
    def test_datagraph_backend_counts_visits(self, dblp_engine) -> None:
        backend = dblp_engine.backend("datagraph")
        assert isinstance(backend, DataGraphBackend)
        dblp_engine.complete_os("author", 0)
        # Fresh backend per call; instrument directly:
        gds = dblp_engine.gds_for("author")
        tree = generate_os(0, gds, backend, dblp_engine.store)
        assert backend.nodes_visited == tree.size - 1  # every non-root fetched

    def test_unknown_backend_kind(self, dblp_engine) -> None:
        with pytest.raises(SummaryError):
            dblp_engine.backend("oracle")

    def test_children_top_threshold_and_limit(self, dblp_engine, dblp_store) -> None:
        gds = dblp_engine.gds_for("author")
        paper_node = gds.node("Paper")
        for kind in ("datagraph", "database", "sqlite"):
            backend = dblp_engine.backend(kind)
            everything = backend.children(paper_node, 0, None)
            capped = backend.children_top(paper_node, 0, None, dblp_store, 0.0, 3)
            assert len(capped) == min(3, len(everything))
            scores = [dblp_store.local_importance(paper_node, r) for r in capped]
            assert scores == sorted(scores, reverse=True)
            all_scores = sorted(
                (dblp_store.local_importance(paper_node, r) for r in everything),
                reverse=True,
            )
            assert scores == all_scores[: len(scores)]

    def test_database_backend_top_counts_one_io(self, dblp_engine, dblp_store) -> None:
        qi = QueryInterface(dblp_engine.db)
        backend = DatabaseBackend(qi)
        gds = dblp_engine.gds_for("author")
        qi.reset_counters()
        backend.children_top(gds.node("Paper"), 0, None, dblp_store, 1e12, 5)
        assert qi.io_accesses == 1  # empty result still costs one access
