"""Tests for the OS tree structure and subset materialisation."""

from __future__ import annotations

import pytest

from repro.core.os_tree import validate_l
from repro.errors import InvalidSizeError, SummaryError

from tests.conftest import make_tree, numbers


class TestStructure:
    def test_bfs_order_parents_first(self, paper_figure4_tree) -> None:
        parent = paper_figure4_tree.parent.tolist()
        assert parent[0] == -1
        assert all(0 <= parent[i] < i for i in range(1, len(parent)))
        assert parent == sorted(parent)  # children ranges are contiguous

    def test_size_and_depth(self, paper_figure4_tree) -> None:
        assert paper_figure4_tree.size == 14
        assert paper_figure4_tree.max_depth() == 3

    def test_leaves(self, star_tree) -> None:
        starts, ends = star_tree.child_bounds()
        leaves = [i for i in range(star_tree.size) if starts[i] == ends[i]]
        assert numbers(star_tree, leaves) == {1, 2, 3, 4, 5}

    def test_subtree_sizes(self, paper_figure4_tree) -> None:
        tree = paper_figure4_tree
        sizes = dict(
            zip(tree.row_id.tolist(), tree.eligible_subtree_sizes(tree.size).tolist())
        )
        assert sizes[0] == 14
        assert sizes[3] == 4  # node 3 + children 7, 8, 9
        assert sizes[4] == 4  # node 4 + 10 + 11 + 13
        assert sizes[13] == 1

    def test_post_order_children_first(self, paper_figure4_tree) -> None:
        # reversed index order is a post-order
        starts, ends = paper_figure4_tree.child_bounds()
        seen: set[int] = set()
        for index in range(paper_figure4_tree.size - 1, -1, -1):
            assert set(range(starts[index], ends[index])) <= seen
            seen.add(index)

    def test_total_importance(self, star_tree) -> None:
        assert star_tree.total_importance() == pytest.approx(25.0)

    def test_path_from_root(self, paper_figure4_tree) -> None:
        view = paper_figure4_tree.to_object_summary()
        node13 = view.node(index_of(paper_figure4_tree, 13))
        assert [n.row_id for n in node13.path_from_root()] == [0, 4, 11, 13]

    def test_unknown_uid_raises(self, star_tree) -> None:
        with pytest.raises(SummaryError):
            star_tree.to_object_summary().node(999)


def index_of(tree, number: int) -> int:
    """The index of node *number* in a make_tree tree."""
    return tree.row_id.tolist().index(number)


class TestMaterialiseSubset:
    def test_connected_subset(self, paper_figure4_tree) -> None:
        tree = paper_figure4_tree
        subset = tree.materialise_subset({index_of(tree, n) for n in (0, 4, 11, 13)})
        assert subset.size == 4
        assert subset.total_importance() == pytest.approx(30 + 31 + 30 + 60)
        node13 = subset.node(index_of(tree, 13))
        assert [n.row_id for n in node13.path_from_root()] == [0, 4, 11, 13]

    def test_missing_root_rejected(self, paper_figure4_tree) -> None:
        tree = paper_figure4_tree
        with pytest.raises(SummaryError, match="root"):
            tree.materialise_subset({index_of(tree, 4), index_of(tree, 11)})

    def test_disconnected_subset_rejected(self, paper_figure4_tree) -> None:
        tree = paper_figure4_tree
        with pytest.raises(SummaryError, match="disconnected"):
            tree.materialise_subset({0, index_of(tree, 13)})  # 4, 11 missing

    def test_unknown_uid_rejected(self, star_tree) -> None:
        with pytest.raises(SummaryError):
            star_tree.materialise_subset({0, 77})

    def test_subset_preserves_uids_and_weights(self, chain_tree) -> None:
        subset = chain_tree.materialise_subset({0, 1, 2})
        assert {n.uid for n in subset.nodes} == {0, 1, 2}
        assert subset.node(2).weight == chain_tree.weight[2]


class TestRendering:
    def test_render_without_db_uses_uids(self, star_tree) -> None:
        text = star_tree.to_object_summary().render()
        assert "Stub#0" in text
        assert len(text.splitlines()) == 6

    def test_render_max_nodes(self, star_tree) -> None:
        text = star_tree.to_object_summary().render(max_nodes=2)
        assert "more tuples" in text

    def test_render_with_database(self, dblp_engine, dblp) -> None:
        tree = dblp_engine.complete_os("author", 0).to_object_summary()
        text = tree.render(max_nodes=5)
        assert text.splitlines()[0] == "Author: Christos Faloutsos"

    def test_word_count_positive(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 2).to_object_summary()
        assert tree.word_count() > tree.size  # every line has >= 1 word


class TestValidateL:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "5", True, None])
    def test_rejects_non_positive_and_non_int(self, bad) -> None:
        with pytest.raises(InvalidSizeError):
            validate_l(bad)

    def test_accepts_positive_int(self) -> None:
        assert validate_l(7) == 7


class TestMakeTreeHelper:
    def test_make_tree_shape(self) -> None:
        tree = make_tree({0: [1, 2]}, {0: 1.0, 1: 2.0, 2: 3.0})
        assert tree.size == 3
        assert tree.parent.tolist() == [-1, 0, 0]
        assert numbers(tree, range(3)) == {0, 1, 2}
