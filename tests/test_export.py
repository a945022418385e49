"""Tests for the JSON export of summaries and results."""

from __future__ import annotations

import json

from repro.core.export import result_to_dict, result_to_json, summary_to_dict
from repro.core.options import QueryOptions


class TestSummaryExport:
    def test_tree_shape_preserved(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 2).to_object_summary()
        payload = summary_to_dict(tree)
        assert payload["size"] == tree.size

        def count(node: dict) -> int:
            return 1 + sum(count(c) for c in node["children"])

        assert count(payload["root"]) == tree.size

    def test_attributes_included_with_db(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0).to_object_summary()
        payload = summary_to_dict(tree)
        assert payload["root"]["attributes"] == {"name": "Christos Faloutsos"}
        assert payload["root"]["pk"] == 0

    def test_no_db_omits_attributes(self, star_tree) -> None:
        payload = summary_to_dict(star_tree.to_object_summary())
        assert "attributes" not in payload["root"]
        assert payload["root"]["weight"] == star_tree.weight[0]


class TestResultExport:
    def test_round_trips_through_json(self, dblp_engine) -> None:
        result = dblp_engine.run("author", 0, QueryOptions(l=8, source="prelim"))
        text = result_to_json(result)
        decoded = json.loads(text)
        assert decoded["l"] == 8
        assert decoded["size"] == 8
        assert len(decoded["selected_uids"]) == 8
        assert decoded["summary"]["size"] == 8

    def test_non_json_stats_stringified(self, dblp_engine) -> None:
        result = dblp_engine.run("author", 0, QueryOptions(l=5, source="prelim"))
        payload = result_to_dict(result)
        assert isinstance(payload["stats"]["prelim"], str)  # PrelimStats repr
        assert payload["stats"]["source"] == "prelim"
        # one flat key set: the typed fields, prelim, then the counters
        assert set(payload["stats"]) == {
            "source", "backend", "initial_os_size", "generation_seconds",
            "algorithm_seconds", "cached", "prelim",
            "paths_selected", "nodes_rescanned",
        }

    def test_importance_matches(self, dblp_engine) -> None:
        result = dblp_engine.run("author", 1, QueryOptions(l=6, source="complete"))
        payload = result_to_dict(result)
        total = payload["summary"]["total_importance"]
        assert abs(total - result.importance) < 1e-9
