"""Determinism guarantees: every pipeline stage must be reproducible.

Benchmark credibility depends on runs being bit-identical under a seed;
these tests pin that property for generation, ranking, prelim, algorithms,
and keyword queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SizeLEngine
from repro.core.options import QueryOptions
from repro.datasets.dblp import small_dblp
from repro.ranking.objectrank import compute_objectrank
from repro.session import Session


@pytest.fixture(scope="module")
def twin_engines():
    """Two engines built independently from the same seed."""
    engines = []
    for _ in range(2):
        data = small_dblp(seed=21)
        store = compute_objectrank(data.db, data.ga1())
        engines.append(
            SizeLEngine(
                data.db,
                {"author": data.author_gds(), "paper": data.paper_gds()},
                store,
            )
        )
    return engines


def _signature(tree) -> list[tuple[str, int, int]]:
    return [
        (n.gds.label, n.row_id, n.parent.row_id if n.parent else -1)
        for n in tree.to_object_summary().nodes
    ]


class TestDeterminism:
    def test_objectrank_scores_identical(self, twin_engines) -> None:
        a, b = twin_engines
        for table in ("author", "paper", "conference"):
            assert np.array_equal(a.store.array(table), b.store.array(table))

    def test_complete_os_identical(self, twin_engines) -> None:
        a, b = twin_engines
        assert _signature(a.complete_os("author", 0)) == _signature(
            b.complete_os("author", 0)
        )

    def test_prelim_identical(self, twin_engines) -> None:
        a, b = twin_engines
        prelim_a, stats_a = a.prelim_os("author", 0, 10)
        prelim_b, stats_b = b.prelim_os("author", 0, 10)
        assert _signature(prelim_a) == _signature(prelim_b)
        assert stats_a.avoided_subtrees == stats_b.avoided_subtrees
        assert stats_a.limited_extractions == stats_b.limited_extractions

    @pytest.mark.parametrize("algorithm", ["dp", "bottom_up", "top_path"])
    def test_size_l_selection_identical(self, twin_engines, algorithm) -> None:
        a, b = twin_engines
        options = QueryOptions(l=12, algorithm=algorithm, source="complete")
        ra = a.run("author", 0, options)
        rb = b.run("author", 0, options)
        assert ra.selected_uids == rb.selected_uids
        assert ra.importance == pytest.approx(rb.importance)

    def test_keyword_query_order_identical(self, twin_engines) -> None:
        a, b = twin_engines
        ra = Session(a).keyword_query("Faloutsos", l=6)
        rb = Session(b).keyword_query("Faloutsos", l=6)
        assert [(e.match.table, e.match.row_id) for e in ra] == [
            (e.match.table, e.match.row_id) for e in rb
        ]

    def test_same_engine_repeat_is_stable(self, twin_engines) -> None:
        engine = twin_engines[0]
        options = QueryOptions(l=9, algorithm="top_path", source="complete")
        first = engine.run("author", 1, options)
        second = engine.run("author", 1, options)
        assert first.selected_uids == second.selected_uids
