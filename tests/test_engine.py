"""End-to-end engine tests: the paper's keyword → size-l OS pipeline.

``engine.run`` is the uncached pipeline under explicit options; keyword
queries go through a :class:`~repro.session.Session`, the one query API.
"""

from __future__ import annotations

import pytest

from repro.core.options import QueryOptions
from repro.errors import SummaryError
from repro.session import Session


def complete(l: int, **changes) -> QueryOptions:  # noqa: E741 - paper notation
    return QueryOptions(l=l, source="complete", **changes)


def prelim(l: int, **changes) -> QueryOptions:  # noqa: E741 - paper notation
    return QueryOptions(l=l, source="prelim", **changes)


class TestSizeL:
    def test_pipeline_stats(self, dblp_engine) -> None:
        result = dblp_engine.run("author", 0, complete(10, algorithm="top_path"))
        assert result.size == 10
        assert result.stats.source == "complete"
        assert result.stats.initial_os_size > 10
        assert result.stats.generation_seconds >= 0
        assert result.stats.algorithm_seconds >= 0

    def test_prelim_source_records_prelim_stats(self, dblp_engine) -> None:
        result = dblp_engine.run("author", 0, prelim(10))
        assert result.stats.prelim.extracted_tuples >= 10

    def test_prelim_and_complete_agree_closely(self, dblp_engine) -> None:
        optimum = dblp_engine.run("author", 0, complete(10, algorithm="dp")).importance
        # DP is monotone under input containment: prelim ⊆ complete ⇒ the
        # prelim optimum cannot exceed the true optimum.
        dp_prelim = dblp_engine.run("author", 0, prelim(10, algorithm="dp"))
        assert dp_prelim.importance <= optimum + 1e-9
        assert dp_prelim.importance >= 0.9 * optimum
        # Greedy heuristics are NOT monotone (pruning distractors can help),
        # so only bound them against the optimum from both sides.
        for algorithm in ("bottom_up", "top_path"):
            full = dblp_engine.run("author", 0, complete(10, algorithm=algorithm))
            pre = dblp_engine.run("author", 0, prelim(10, algorithm=algorithm))
            assert pre.importance <= optimum + 1e-9
            assert full.importance <= optimum + 1e-9
            assert pre.importance >= 0.85 * optimum
            assert full.importance >= 0.85 * optimum

    def test_unknown_algorithm_rejected(self, dblp_engine, orphaned_options) -> None:
        with pytest.raises(SummaryError, match="unknown algorithm 'orphan'"):
            dblp_engine.run("author", 0, orphaned_options)

    def test_unknown_rds_rejected(self, dblp_engine) -> None:
        with pytest.raises(SummaryError, match="no G_DS"):
            dblp_engine.run("conference", 0, complete(5))

    def test_dp_beats_or_matches_greedy(self, dblp_engine) -> None:
        dp = dblp_engine.run("author", 0, complete(15, algorithm="dp"))
        for algorithm in ("bottom_up", "top_path", "top_path_optimized"):
            greedy = dblp_engine.run("author", 0, complete(15, algorithm=algorithm))
            assert greedy.importance <= dp.importance + 1e-9


class TestKeywordQuery:
    def test_example_5_shape(self, dblp_engine) -> None:
        """Q1 = "Faloutsos", l = 15: three size-15 OSs (Example 5)."""
        results = Session(dblp_engine).keyword_query("Faloutsos", l=15)
        assert len(results) == 3
        for entry in results:
            assert entry.result.size == 15
            rendered = entry.result.render()
            assert rendered.splitlines()[0].startswith("Author: ")
            assert "Faloutsos" in rendered.splitlines()[0]

    def test_results_ordered_by_subject_importance(self, dblp_engine) -> None:
        results = Session(dblp_engine).keyword_query("Faloutsos", l=5)
        importances = [entry.match.importance for entry in results]
        assert importances == sorted(importances, reverse=True)

    def test_max_results(self, dblp_engine) -> None:
        results = Session(dblp_engine).keyword_query("Faloutsos", l=5, max_results=1)
        assert len(results) == 1

    def test_tpch_supplier_query(self, tpch_engine) -> None:
        results = Session(tpch_engine).keyword_query("Supplier#000001", l=8)
        assert len(results) == 1
        assert results[0].result.summary.root.table == "supplier"

    def test_describe(self, dblp_engine) -> None:
        info = dblp_engine.describe()
        assert info["rds_tables"] == ["author", "paper"]
        assert info["theta"] == 0.7
        assert info["total_rows"] == dblp_engine.db.total_rows


class TestEngineConstruction:
    def test_gds_annotated_on_construction(self, dblp_engine) -> None:
        gds = dblp_engine.gds_for("author")
        assert gds.node("Paper").max_local > 0
        assert gds.node("Paper").mmax_local > 0
        assert gds.node("Conference").mmax_local == 0.0  # leaf

    def test_gds_pruned_at_theta(self, dblp_engine) -> None:
        gds = dblp_engine.gds_for("author")
        assert all(n.affinity >= 0.7 for n in gds.nodes() if not n.is_root)

    def test_data_graph_lazy_and_cached(self, dblp_engine) -> None:
        assert dblp_engine.data_graph is dblp_engine.data_graph
