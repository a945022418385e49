"""Tests for the Section-6 experiment harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bottom_up import bottom_up_size_l
from repro.core.dp import optimal_size_l
from repro.evaluation.effectiveness import (
    effectiveness_experiment,
    greedy_effectiveness_impact,
)
from repro.evaluation.efficiency import (
    breakdown_experiment,
    efficiency_experiment,
    scalability_experiment,
)
from repro.evaluation.evaluators import (
    EvaluatorConfig,
    SimulatedEvaluator,
    make_panel,
    reweight,
)
from repro.evaluation.quality import quality_experiment
from repro.evaluation.reporting import pivot_table, rows_to_table
from repro.evaluation.snippet_baseline import snippet_overlap_experiment, static_snippet


@pytest.fixture(scope="module")
def author_trees(dblp_engine):
    return [dblp_engine.complete_os("author", rid) for rid in (0, 1, 2)]


class TestSimulatedEvaluator:
    def test_noise_is_deterministic(self, dblp_store) -> None:
        judge = SimulatedEvaluator(3, dblp_store)
        assert judge.private_importance("author", 5) == judge.private_importance(
            "author", 5
        )

    def test_judges_differ(self, dblp_store) -> None:
        a = SimulatedEvaluator(1, dblp_store)
        b = SimulatedEvaluator(2, dblp_store)
        assert a.private_importance("author", 5) != b.private_importance("author", 5)

    def test_zero_noise_matches_reference(self, dblp_store, author_trees) -> None:
        config = EvaluatorConfig(noise_sigma=0.0, depth1_bias=0.0)
        judge = SimulatedEvaluator(0, dblp_store, config)
        gold = judge.gold_selection(author_trees[0], 10)
        reference = optimal_size_l(author_trees[0], 10).selected_uids
        assert gold == reference

    def test_gold_selection_is_connected(self, dblp_store, author_trees) -> None:
        judge = SimulatedEvaluator(4, dblp_store)
        gold = judge.gold_selection(author_trees[0], 8)
        tree = author_trees[0]
        assert 0 in gold  # the root
        for index in gold:
            parent = int(tree.parent[index])
            if parent >= 0:
                assert parent in gold

    def test_depth1_bias_prefers_shallow_nodes(self, dblp_store, author_trees) -> None:
        tree = author_trees[0]
        flat = SimulatedEvaluator(0, dblp_store, EvaluatorConfig(noise_sigma=0.0, depth1_bias=0.0))
        biased = SimulatedEvaluator(0, dblp_store, EvaluatorConfig(noise_sigma=0.0, depth1_bias=50.0))
        depth1_flat = sum(1 for i in flat.gold_selection(tree, 6) if tree.depth[i] == 1)
        depth1_biased = sum(
            1 for i in biased.gold_selection(tree, 6) if tree.depth[i] == 1
        )
        assert depth1_biased >= depth1_flat

    def test_reweight_preserves_uids(self, author_trees) -> None:
        tree = author_trees[0]
        clone = reweight(tree, np.ones(tree.size))
        assert clone.size == tree.size
        assert np.array_equal(clone.row_id, tree.row_id)
        assert np.array_equal(clone.parent, tree.parent)
        assert all(w == 1.0 for w in clone.weight.tolist())


class TestEffectiveness:
    def test_perfect_agreement_with_noiseless_judges(self, dblp_store, author_trees) -> None:
        config = EvaluatorConfig(noise_sigma=0.0, depth1_bias=0.0)
        panel = [SimulatedEvaluator(0, dblp_store, config)]
        rows = effectiveness_experiment(
            author_trees, {"ref": dblp_store}, panel, [5, 10]
        )
        for row in rows:
            assert row.effectiveness == pytest.approx(100.0)

    def test_effectiveness_within_bounds(self, dblp_store, author_trees) -> None:
        panel = make_panel(3, dblp_store)
        rows = effectiveness_experiment(author_trees, {"ref": dblp_store}, panel, [5])
        for row in rows:
            assert 0.0 <= row.effectiveness <= 100.0
            assert row.n_observations == 9  # 3 trees x 3 judges

    def test_greedy_impact_driver(self, dblp_store, author_trees) -> None:
        panel = make_panel(2, dblp_store)
        rows = greedy_effectiveness_impact(
            author_trees,
            dblp_store,
            panel,
            [5],
            {"optimal": optimal_size_l, "bottom_up": bottom_up_size_l},
        )
        settings = {row.setting for row in rows}
        assert settings == {"optimal", "bottom_up"}


class TestQuality:
    def test_ratios_at_most_100(self, dblp_engine, author_trees) -> None:
        pairs = []
        for rid, tree in zip((0, 1, 2), author_trees):
            prelim, _ = dblp_engine.prelim_os("author", rid, 20)
            pairs.append((tree, prelim))
        rows = quality_experiment(pairs, [5, 10, 20])
        assert rows, "no quality rows produced"
        for row in rows:
            assert row.quality <= 100.0 + 1e-6
            assert row.quality > 50.0  # greedy methods are decent here

    def test_row_grid_complete(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 1)
        prelim, _ = dblp_engine.prelim_os("author", 1, 10)
        rows = quality_experiment([(tree, prelim)], [5, 10])
        combos = {(r.method, r.source, r.l) for r in rows}
        assert len(combos) == 2 * 2 * 2


class TestEfficiency:
    def test_timing_rows(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 1)
        prelim, _ = dblp_engine.prelim_os("author", 1, 10)
        rows = efficiency_experiment([(tree, prelim)], [5, 10])
        assert all(row.seconds >= 0 or row.seconds != row.seconds for row in rows)
        methods = {row.method for row in rows}
        assert methods == {"bottom_up", "top_path", "optimal"}

    def test_dp_budget_skips(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0)
        prelim, _ = dblp_engine.prelim_os("author", 0, 10)
        rows = efficiency_experiment([(tree, prelim)], [10], dp_budget_nodes=1)
        optimal_complete = next(
            r for r in rows if r.method == "optimal" and r.source == "complete"
        )
        assert optimal_complete.seconds != optimal_complete.seconds  # NaN

    def test_scalability_rows_sorted_by_size(self, dblp_engine, author_trees) -> None:
        rows = scalability_experiment(author_trees, l=5)
        sizes = [r.mean_os_size for r in rows if r.method == "bottom_up"]
        assert sizes == sorted(sizes)

    def test_breakdown_rows(self, dblp_engine) -> None:
        rows = breakdown_experiment(dblp_engine, "author", [1, 2], [5])
        labels = {row.label for row in rows}
        assert any("database" in label for label in labels)
        assert any("prelim" in label for label in labels)
        db_rows = [r for r in rows if "complete[database]" in r.label]
        assert all(r.io_accesses > 0 for r in db_rows)


class TestSnippetBaseline:
    def test_snippet_contains_root_and_k_nodes(self, author_trees) -> None:
        snippet = static_snippet(author_trees[0], k=3, seed=1)
        assert 0 in snippet  # the root
        assert len(snippet) == 4

    def test_overlap_is_low(self, dblp_store, author_trees) -> None:
        """The paper: snippets recover 0, exceptionally 1, gold tuples."""
        panel = make_panel(3, dblp_store)
        rows = snippet_overlap_experiment(author_trees, panel)
        mean_overlap = sum(r.overlap_tuples for r in rows) / len(rows)
        assert mean_overlap <= 1.0

    def test_snippet_deterministic(self, author_trees) -> None:
        assert static_snippet(author_trees[0], seed=5) == static_snippet(
            author_trees[0], seed=5
        )


class TestReporting:
    def test_rows_to_table(self) -> None:
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.25}]
        table = rows_to_table(rows)
        assert "a" in table.splitlines()[0]
        assert len(table.splitlines()) == 4

    def test_pivot_table(self) -> None:
        rows = [
            {"l": 5, "setting": "x", "val": 1.0},
            {"l": 5, "setting": "y", "val": 2.0},
            {"l": 10, "setting": "x", "val": 3.0},
        ]
        table = pivot_table(rows, index="l", columns="setting", value="val")
        assert "x" in table.splitlines()[0] and "y" in table.splitlines()[0]
        assert "nan" in table  # missing (10, y) cell

    def test_empty_rows(self) -> None:
        assert rows_to_table([]) == "(no rows)"
        assert pivot_table([], index="a", columns="b", value="c") == "(no rows)"

    def test_dataclass_rows(self, dblp_store, author_trees) -> None:
        panel = make_panel(1, dblp_store)
        rows = effectiveness_experiment(author_trees, {"ref": dblp_store}, panel, [5])
        assert "effectiveness" in rows_to_table(rows)
