"""Tests for the tuple-level data graph index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagraph.builder import build_data_graph, timed_build
from repro.errors import GraphError
from repro.schema_graph.gds import JunctionJoin, RefJoin, ReverseJoin


class TestBuild:
    def test_edge_count_matches_fk_rows(self, dblp) -> None:
        graph = build_data_graph(dblp.db)
        writes_edges = graph.adjacency("writes", "author_id").edge_count
        assert writes_edges == len(dblp.db.table("writes"))

    def test_timed_build(self, dblp) -> None:
        graph, seconds = timed_build(dblp.db)
        assert seconds >= 0
        assert graph.edge_count > 0

    def test_size_bytes_exact(self, dblp) -> None:
        graph = build_data_graph(dblp.db)
        expected = sum(
            adj.forward.nbytes + adj.backward_indptr.nbytes + adj.backward_indices.nbytes
            for adj in graph._adj.values()
        )
        assert graph.size_bytes() == expected > 0

    def test_csr_buckets_match_forward(self, dblp) -> None:
        graph = build_data_graph(dblp.db)
        adj = graph.adjacency("writes", "paper_id")
        for target_row in range(len(dblp.db.table("paper"))):
            bucket = adj.backward(target_row)
            assert list(bucket) == sorted(bucket)  # ascending owner rows
            assert all(adj.forward[owner] == target_row for owner in bucket)
        assert adj.backward_indices.size == int((adj.forward >= 0).sum())

    def test_backward_many_matches_per_row(self, dblp) -> None:
        graph = build_data_graph(dblp.db)
        adj = graph.adjacency("writes", "author_id")
        targets = np.arange(len(dblp.db.table("author")))
        rep, owners = adj.backward_many(targets)
        flat = [
            (int(t_pos), int(owner))
            for t_pos, t in enumerate(targets)
            for owner in adj.backward(int(t))
        ]
        assert list(zip(rep.tolist(), owners.tolist())) == flat

    def test_unknown_adjacency_raises(self, dblp) -> None:
        graph = build_data_graph(dblp.db)
        with pytest.raises(GraphError):
            graph.adjacency("author", "name")


class TestChildrenOf:
    @pytest.fixture()
    def graph(self, dblp):
        return build_data_graph(dblp.db)

    def test_ref_join(self, dblp, graph) -> None:
        paper = dblp.db.table("paper")
        year_table = dblp.db.table("year")
        join = RefJoin(fk_column="year_id", target_table="year")
        for row_id in range(5):
            children = graph.children_of(join, "paper", row_id)
            expected_pk = paper.value(row_id, "year_id")
            assert list(children) == [year_table.row_id_for_pk(expected_pk)]

    def test_reverse_join(self, dblp, graph) -> None:
        join = ReverseJoin(child_table="writes", fk_column="paper_id")
        writes = dblp.db.table("writes")
        paper = dblp.db.table("paper")
        paper_pk = paper.pk_of_row(0)
        expected = [
            rid for rid, row in writes.scan()
            if row[writes.schema.column_index("paper_id")] == paper_pk
        ]
        assert list(graph.children_of(join, "paper", 0)) == expected

    def test_reverse_join_is_zero_copy(self, dblp, graph) -> None:
        join = ReverseJoin(child_table="writes", fk_column="paper_id")
        children = graph.children_of(join, "paper", 0)
        adj = graph.adjacency("writes", "paper_id")
        assert children.base is adj.backward_indices  # a view, not a copy

    def test_junction_join(self, dblp, graph) -> None:
        join = JunctionJoin(
            junction_table="writes",
            from_column="author_id",
            to_column="paper_id",
            target_table="paper",
        )
        children = graph.children_of(join, "author", 0)
        # Compare against a manual two-hop join.
        writes = dblp.db.table("writes")
        paper = dblp.db.table("paper")
        author_pk = dblp.db.table("author").pk_of_row(0)
        expected = [
            paper.row_id_for_pk(row[writes.schema.column_index("paper_id")])
            for _rid, row in writes.scan()
            if row[writes.schema.column_index("author_id")] == author_pk
        ]
        assert list(children) == expected

    def test_junction_join_excludes_origin(self, dblp, graph) -> None:
        join = JunctionJoin(
            junction_table="writes",
            from_column="paper_id",
            to_column="author_id",
            target_table="author",
            exclude_origin=True,
        )
        # Paper 0 is the family joint paper: authors include 0, 1, 2.
        with_origin = graph.children_of(join, "paper", 0, origin_row=None)
        without = graph.children_of(join, "paper", 0, origin_row=0)
        assert 0 in with_origin
        assert 0 not in without
        assert set(without) == set(with_origin) - {0}

    def test_self_loop_junction_directions_differ(self, dblp, graph) -> None:
        cites = JunctionJoin("cites", "citing_id", "cited_id", "paper")
        cited_by = JunctionJoin("cites", "cited_id", "citing_id", "paper")
        outgoing = graph.children_of(cites, "paper", 0)
        incoming = graph.children_of(cited_by, "paper", 0)
        # A paper's citations and its citers are different lists in general.
        cites_table = dblp.db.table("cites")
        paper = dblp.db.table("paper")
        pk = paper.pk_of_row(0)
        expected_out = [
            paper.row_id_for_pk(row[cites_table.schema.column_index("cited_id")])
            for _rid, row in cites_table.scan()
            if row[cites_table.schema.column_index("citing_id")] == pk
        ]
        assert list(outgoing) == expected_out
        assert set(outgoing) != set(incoming) or not outgoing
