"""Tests for prelim-l OS generation (Algorithm 4) — Definition 2, Lemma 3."""

from __future__ import annotations

import pytest

from repro.core.dp import optimal_size_l
from repro.core.os_tree import FlatOS


def _top_l_local_importances(tree: FlatOS, l: int) -> list[float]:  # noqa: E741
    return sorted(tree.weight.tolist(), reverse=True)[:l]


def _signature(tree: FlatOS) -> list[tuple[str, int, int]]:
    """(G_DS label, row, parent row) of every node — uid-order independent."""
    return sorted(
        (n.gds.label, n.row_id, n.parent.row_id if n.parent else -1)
        for n in tree.to_object_summary().nodes
    )


class TestDefinition2:
    """The prelim-l OS must contain the top-l set of the complete OS."""

    @pytest.mark.parametrize("l", [1, 5, 10, 25])
    @pytest.mark.parametrize("row_id", [0, 1, 2])
    def test_prelim_contains_top_l_weights_dblp(self, dblp_engine, l, row_id) -> None:
        complete = dblp_engine.complete_os("author", row_id)
        prelim, stats = dblp_engine.prelim_os("author", row_id, l)
        expected = _top_l_local_importances(complete, min(l, complete.size))
        got = _top_l_local_importances(prelim, len(expected))
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("l", [5, 15])
    def test_prelim_contains_top_l_weights_tpch(self, tpch_engine, l) -> None:
        complete = tpch_engine.complete_os("customer", 1)
        prelim, _stats = tpch_engine.prelim_os("customer", 1, l)
        expected = _top_l_local_importances(complete, min(l, complete.size))
        got = _top_l_local_importances(prelim, len(expected))
        assert got == pytest.approx(expected)

    def test_prelim_is_subset_of_complete(self, dblp_engine) -> None:
        complete = dblp_engine.complete_os("author", 0)
        prelim, _stats = dblp_engine.prelim_os("author", 0, 10)
        assert set(_signature(prelim)) <= set(_signature(complete))
        assert prelim.size <= complete.size

    def test_prelim_smaller_than_complete(self, dblp_engine) -> None:
        complete = dblp_engine.complete_os("author", 0)
        prelim, _stats = dblp_engine.prelim_os("author", 0, 5)
        # On a skewed OS the prelim should prune aggressively (the paper
        # reports prelim-5 at ~10% of the complete OS).
        assert prelim.size < complete.size * 0.7

    def test_avoidance_counters(self, dblp_engine) -> None:
        _prelim, stats = dblp_engine.prelim_os("author", 0, 5)
        assert stats.avoided_subtrees > 0
        assert stats.limited_extractions > 0
        assert stats.extracted_tuples >= 5
        assert len(stats.top_l_uids) == 5

    def test_backend_equivalence_for_prelim(self, dblp_engine) -> None:
        via_graph, _ = dblp_engine.prelim_os("author", 1, 8, backend="datagraph")
        via_db, _ = dblp_engine.prelim_os("author", 1, 8, backend="database")
        assert _signature(via_graph) == _signature(via_db)


class TestLemma3:
    """Under monotone local importances the prelim-l OS contains the
    optimal size-l OS.

    With *uniform* global importance, local importance reduces to the G_DS
    affinity, which Equation 1 makes monotonically decreasing along every
    root-to-leaf path — so every OS satisfies Lemma 3's precondition."""

    @pytest.fixture(scope="class")
    def uniform_engine(self, dblp):
        from repro.core.engine import SizeLEngine
        from repro.ranking.store import ImportanceStore

        return SizeLEngine(
            dblp.db,
            {"author": dblp.author_gds(), "paper": dblp.paper_gds()},
            ImportanceStore.uniform(dblp.db),
        )

    @pytest.mark.parametrize("l", [3, 8, 15])
    @pytest.mark.parametrize("rds", ["author", "paper"])
    def test_prelim_preserves_optimum_when_monotone(self, uniform_engine, rds, l) -> None:
        for row_id in range(3):
            complete = uniform_engine.complete_os(rds, row_id)
            assert all(
                complete.weight[i] <= complete.weight[complete.parent[i]] + 1e-12
                for i in range(1, complete.size)
            ), "uniform scores must make OSs monotone (Eq. 1)"
            prelim, _stats = uniform_engine.prelim_os(rds, row_id, l)
            dp_complete = optimal_size_l(complete, l)
            dp_prelim = optimal_size_l(prelim, l)
            assert dp_prelim.importance == pytest.approx(dp_complete.importance)

    @pytest.mark.parametrize("l", [3, 10])
    def test_lemma_2_bottom_up_optimal_on_monotone_os(self, uniform_engine, l) -> None:
        from repro.core.bottom_up import bottom_up_size_l

        complete = uniform_engine.complete_os("author", 0)
        bu = bottom_up_size_l(complete, l)
        dp = optimal_size_l(complete, l)
        assert bu.importance == pytest.approx(dp.importance)


class TestPrelimQualityImpact:
    def test_prelim_quality_loss_is_small(self, dblp_engine) -> None:
        """Section 6.2: prelim-l OSs have 'very low approximation quality
        loss' — at most a few percent."""
        losses = []
        for row_id in range(3):
            complete = dblp_engine.complete_os("author", row_id)
            for l in (5, 10, 20):  # noqa: E741
                prelim, _stats = dblp_engine.prelim_os("author", row_id, l)
                best_complete = optimal_size_l(complete, l).importance
                best_prelim = optimal_size_l(prelim, l).importance
                if best_complete > 0:
                    losses.append(best_prelim / best_complete)
        assert min(losses) > 0.85
        assert sum(losses) / len(losses) > 0.95
