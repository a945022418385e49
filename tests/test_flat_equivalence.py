"""Property tests: the FlatOS pipeline equals the node-based oracles.

Over randomized databases (tiny synthetic DBLP instances parameterised by a
hypothesis-drawn seed, with randomized importance scores), every generator
and size-l algorithm must match :mod:`tests.oracles`:

* complete OSs node for node (index == uid): ``generate_os_flat`` over the
  data graph and the per-parent ``generate_os`` over ``database`` and
  ``sqlite``, with the same I/O count as the oracle;
* prelim-l OSs node for node with identical ``PrelimStats``, on the
  ``datagraph``, ``database`` and ``sqlite`` backends;
* identical size-l selections and total importance across dp, bottom_up,
  and both top_path variants, with each vectorized branch forced on and
  off; and
* the brute-force-optimal (table, row_id) selection for small l.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dp, top_path
from repro.core.brute_force import brute_force_size_l
from repro.core.dp import optimal_size_l
from repro.core.engine import SizeLEngine
from repro.core.options import Algorithm, QueryOptions, Source
from repro.core.registry import get_algorithm
from repro.datasets.dblp import DBLPConfig, generate_dblp
from repro.ranking.store import ImportanceStore

from tests.conftest import make_tree
from tests.oracles import (
    ORACLE_ALGORITHMS,
    assert_same_selection,
    assert_same_tree,
    generate_os_nodes,
    generate_prelim_os_nodes,
    top_path_size_l_nodes,
)

#: OSs above this size make the exponential brute-force oracle too slow.
BRUTE_FORCE_MAX_NODES = 45

#: (dp._VECTOR_MERGE_MIN_CAP, top_path._VECTOR_SCAN_MIN_NODES): the module
#: constants that pick a scalar or a vectorized inner loop.  Forcing both
#: to 1 (always vector) and to a huge value (never) must not change any
#: selection.
BRANCH_SETTINGS = [(1, 1), (10**9, 10**9)]


@st.composite
def tie_heavy_tree(draw, max_nodes: int = 16):
    """A random tree whose weights are small integers: exact ties abound."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    structure: dict[int, list[int]] = {}
    for number in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=number - 1))
        structure.setdefault(parent, []).append(number)
    weights = {
        number: float(draw(st.integers(min_value=0, max_value=3)))
        for number in range(n)
    }
    return make_tree(structure, weights)


@lru_cache(maxsize=32)
def _engine(seed: int) -> SizeLEngine:
    """A tiny randomized database + randomized importances under *seed*."""
    dataset = generate_dblp(
        DBLPConfig(
            n_authors=10,
            n_papers=16,
            n_conferences=3,
            mean_authors_per_paper=1.8,
            mean_citations_per_paper=1.5,
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed * 7919 + 13)
    store = ImportanceStore(
        {
            name: rng.uniform(0.05, 10.0, len(dataset.db.table(name)))
            for name in dataset.db.table_names
        }
    )
    return SizeLEngine(
        dataset.db,
        {"author": dataset.author_gds(), "paper": dataset.paper_gds()},
        store,
    )


def _tuple_multiset(result) -> list[tuple[str, int]]:
    """Selected tuples as a (table, row_id) multiset.

    Compared at table granularity, not G_DS label: the same tuple reached
    via two labels of equal affinity (a paper as PaperCites vs PaperCitedBy)
    is an exact weight tie, and equally-optimal selections may legitimately
    differ in which occurrence they keep.
    """
    return sorted(
        (node.table, node.row_id) for node in result.summary.nodes
    )


def _assert_selections_match(flat, tree, l: int) -> None:  # noqa: E741
    """Every algorithm, under every branch setting, equals its oracle."""
    for name, registered, oracle in ORACLE_ALGORITHMS:
        expected = oracle(tree, l)
        for merge_cap, scan_nodes in BRANCH_SETTINGS:
            with mock.patch.object(dp, "_VECTOR_MERGE_MIN_CAP", merge_cap), \
                    mock.patch.object(top_path, "_VECTOR_SCAN_MIN_NODES", scan_nodes):
                result = get_algorithm(registered)(flat, l)
            assert result.selected_uids == expected.selected_uids, (name, merge_cap)
            assert result.importance == pytest.approx(expected.importance), name
            assert _tuple_multiset(result) == _tuple_multiset(expected), name


class TestFlatEqualsLegacy:
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        seed=st.integers(min_value=0, max_value=15),
        subject=st.integers(min_value=0, max_value=9),
        l=st.integers(min_value=1, max_value=6),
        rds=st.sampled_from(["author", "paper"]),
    )
    def test_flat_pipeline_matches_legacy_and_brute_force(
        self, seed: int, subject: int, l: int, rds: str  # noqa: E741
    ) -> None:
        engine = _engine(seed)
        gds, store, qi = engine.gds_for(rds), engine.store, engine.query_interface

        # Complete OSs: the level-synchronous and the per-parent generators
        # both equal the oracle node for node, with identical I/O.
        oracle = generate_os_nodes(subject, gds, engine.backend("datagraph"), store)
        flat = engine.complete_os_flat(rds, subject)
        assert_same_tree(flat, oracle)
        for backend in ("database", "sqlite"):
            qi.reset_counters()
            assert_same_tree(engine.complete_os(rds, subject, backend=backend), oracle)
            io = qi.io_accesses
            qi.reset_counters()
            generate_os_nodes(subject, gds, engine.backend(backend), store)
            assert io == qi.io_accesses > 0, backend

        # Prelim-l OSs (Algorithm 4): node for node, same avoidance counts.
        for backend in ("datagraph", "database", "sqlite"):
            qi.reset_counters()
            prelim, stats = engine.prelim_os(rds, subject, l, backend=backend)
            io = qi.io_accesses
            qi.reset_counters()
            prelim_oracle, oracle_stats = generate_prelim_os_nodes(
                subject, gds, engine.backend(backend), store, l
            )
            assert_same_tree(prelim, prelim_oracle)
            assert stats == oracle_stats, backend
            assert io == qi.io_accesses, backend

        # Identical selections and importance for every size-l algorithm.
        _assert_selections_match(flat, oracle, l)
        _assert_selections_match(prelim, prelim_oracle, l)

        # The flat DP stays brute-force optimal (randomized weights make the
        # optimum unique with probability 1, so the selections match too).
        if flat.size <= BRUTE_FORCE_MAX_NODES:
            brute = brute_force_size_l(flat, l)
            flat_dp = optimal_size_l(flat, l)
            assert flat_dp.importance == pytest.approx(brute.importance)
            assert _tuple_multiset(flat_dp) == _tuple_multiset(brute)

    @settings(max_examples=80, deadline=None, database=None)
    @given(tree=tie_heavy_tree(), l=st.integers(min_value=1, max_value=8))
    def test_ties_break_like_the_oracle(self, tree, l: int) -> None:  # noqa: E741
        """Every body breaks exact weight ties the way the oracle does (by
        index == uid), on trees where ties are the rule, not the exception."""
        _assert_selections_match(tree, tree.to_object_summary(), l)

    def test_large_l_exercises_vectorized_branches(self, dblp_engine) -> None:
        """l large enough for the vectorized DP merge (cap >= 64) and the
        vectorized top-path subtree scan (>= 256 nodes) under the default
        thresholds — the small-l property test only reaches them forced."""
        flat = dblp_engine.complete_os_flat("author", 0)
        oracle = generate_os_nodes(
            0, dblp_engine.gds_for("author"), dblp_engine.backend("datagraph"),
            dblp_engine.store,
        )
        assert flat.size == oracle.size > 256
        for l in (80, 150):  # noqa: E741 - paper notation
            assert min(l, flat.size) > 64  # DP root cap crosses the threshold
            for _name, registered, oracle_fn in ORACLE_ALGORITHMS:
                assert_same_selection(
                    get_algorithm(registered)(flat, l), oracle_fn(oracle, l)
                )

    @settings(max_examples=15, deadline=None, database=None)
    @given(
        seed=st.integers(min_value=0, max_value=7),
        l=st.integers(min_value=1, max_value=8),
        source=st.sampled_from([Source.COMPLETE, Source.PRELIM]),
        backend=st.sampled_from(["datagraph", "database"]),
    )
    def test_engine_run_matches_oracle_pipeline(
        self, seed: int, l: int, source: Source, backend: str  # noqa: E741
    ) -> None:
        """engine.run returns the oracle pipeline's selection and render."""
        engine = _engine(seed)
        options = QueryOptions(
            l=l, algorithm=Algorithm.TOP_PATH, source=source, backend=backend
        )
        result = engine.run("author", 3, options)
        gds, gen = engine.gds_for("author"), engine.backend(backend)
        if source is Source.COMPLETE:
            tree = generate_os_nodes(3, gds, gen, engine.store)
        else:
            tree, _stats = generate_prelim_os_nodes(3, gds, gen, engine.store, l)
        expected = top_path_size_l_nodes(tree, l)
        assert_same_selection(result, expected)
        assert result.summary.render() == expected.summary.render()
