"""Tests for the Section-7 future-work features we implemented:
word-budget summaries and combined top-k ranking."""

from __future__ import annotations

import pytest

from repro.core.options import QueryOptions
from repro.core.snippet import word_budget_summary
from repro.core.topk import rank_by_summary_importance, rank_data_subjects
from repro.errors import SummaryError


class TestWordBudget:
    def test_budget_respected(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0)
        result = word_budget_summary(tree, word_budget=50)
        assert result.summary.word_count() <= 50
        assert result.stats["word_budget"] == 50
        assert result.stats["word_count"] == result.summary.word_count()

    def test_larger_budget_gives_no_smaller_summary(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 1)
        small = word_budget_summary(tree, word_budget=30)
        large = word_budget_summary(tree, word_budget=120)
        assert large.size >= small.size

    def test_tiny_budget_falls_back_to_root(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0)
        result = word_budget_summary(tree, word_budget=1)
        assert result.size == 1

    def test_bad_budget_rejected(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0)
        with pytest.raises(SummaryError):
            word_budget_summary(tree, word_budget=0)

    def test_requires_database(self, star_tree) -> None:
        with pytest.raises(SummaryError, match="database"):
            word_budget_summary(star_tree, word_budget=10)


class TestTopK:
    def test_rank_data_subjects(self, dblp_engine) -> None:
        matches = dblp_engine.searcher.search("Faloutsos")
        ranked = rank_data_subjects(matches, k=2)
        assert len(ranked) == 2
        assert ranked[0].importance >= ranked[1].importance

    def test_rank_by_summary_importance(self, dblp_engine) -> None:
        matches = dblp_engine.searcher.search("Faloutsos")
        ranked = rank_by_summary_importance(dblp_engine, matches, QueryOptions(l=10), k=3)
        importances = [result.importance for _match, result in ranked]
        assert importances == sorted(importances, reverse=True)
        assert all(result.size == 10 for _match, result in ranked)

    def test_summary_ranking_can_differ_from_subject_ranking(self, dblp_engine) -> None:
        # Not asserted to differ (data-dependent), but both orders must be
        # internally consistent and cover the same subjects.
        matches = dblp_engine.searcher.search("Faloutsos")
        by_subject = [m.row_id for m in rank_data_subjects(matches)]
        by_summary = [
            m.row_id
            for m, _r in rank_by_summary_importance(dblp_engine, matches, QueryOptions(l=5))
        ]
        assert sorted(by_subject) == sorted(by_summary)
