"""Shared fixtures: small datasets, rankings, engines, and tree builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SizeLEngine
from repro.core.options import QueryOptions, Source
from repro.core.os_tree import FlatOS
from repro.core.registry import ALGORITHM_REGISTRY, get_algorithm
from repro.datasets.dblp import DBLPDataset, small_dblp
from repro.datasets.tpch import TPCHDataset, small_tpch
from repro.ranking.objectrank import compute_objectrank
from repro.ranking.valuerank import compute_valuerank
from repro.ranking.store import ImportanceStore
from repro.schema_graph.gds import GDS, GDSNode


# --------------------------------------------------------------------- #
# Datasets (session-scoped: generation is deterministic and reused)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def dblp() -> DBLPDataset:
    return small_dblp(seed=7)


@pytest.fixture(scope="session")
def dblp_store(dblp: DBLPDataset) -> ImportanceStore:
    return compute_objectrank(dblp.db, dblp.ga1())


@pytest.fixture(scope="session")
def dblp_engine(dblp: DBLPDataset, dblp_store: ImportanceStore) -> SizeLEngine:
    return SizeLEngine(
        dblp.db,
        {"author": dblp.author_gds(), "paper": dblp.paper_gds()},
        dblp_store,
    )


@pytest.fixture(scope="session")
def dblp_snapshot(dblp_engine: SizeLEngine, tmp_path_factory):
    """A snapshot of every author subject of the shared DBLP engine.

    Session-scoped (like the engine it fingerprints): writing it costs one
    full-table precompute, reused by the persistence and serving tests.
    """
    from repro.persist import Snapshot, precompute_snapshot, select_subjects

    path = tmp_path_factory.mktemp("persist") / "dblp-snapshot"
    subjects = select_subjects(dblp_engine, table="author")
    precompute_snapshot(dblp_engine, subjects, path)
    return Snapshot.open(path)


@pytest.fixture(scope="session")
def tpch() -> TPCHDataset:
    return small_tpch(seed=11)


@pytest.fixture(scope="session")
def tpch_store(tpch: TPCHDataset) -> ImportanceStore:
    return compute_valuerank(tpch.db, tpch.ga1())


@pytest.fixture(scope="session")
def tpch_engine(tpch: TPCHDataset, tpch_store: ImportanceStore) -> SizeLEngine:
    return SizeLEngine(
        tpch.db,
        {"customer": tpch.customer_gds(), "supplier": tpch.supplier_gds()},
        tpch_store,
    )


@pytest.fixture
def orphaned_options() -> QueryOptions:
    """Complete-source options naming an algorithm that was unregistered
    after they were built: the one way an invalid name reaches a run."""
    ALGORITHM_REGISTRY.register("orphan", get_algorithm("top_path"))
    try:
        return QueryOptions(l=5, algorithm="orphan", source=Source.COMPLETE)
    finally:
        ALGORITHM_REGISTRY.unregister("orphan")


# --------------------------------------------------------------------- #
# Synthetic OS trees (no database needed) for algorithm tests
# --------------------------------------------------------------------- #
def make_tree(structure: dict[int, list[int]], weights: dict[int, float]) -> FlatOS:
    """Build a FlatOS from ``parent_number -> [child_numbers]`` + weights.

    Node number 0 is the root.  Indices follow BFS order (children in list
    order), and each node's ``row_id`` is its number, so tests read node
    numbers back through ``row_id`` (:func:`numbers`).  The G_DS is a
    single stub node (the algorithms only read weights and shape).
    """
    order, parent, depth = [0], [-1], [0]
    cursor = 0
    while cursor < len(order):
        for child in structure.get(order[cursor], []):
            order.append(child)
            parent.append(cursor)
            depth.append(depth[cursor] + 1)
        cursor += 1
    return FlatOS(
        parent=np.array(parent, dtype=np.int32),
        depth=np.array(depth, dtype=np.int32),
        gds_node_id=np.zeros(len(order), dtype=np.int32),
        row_id=np.array(order, dtype=np.int32),
        weight=np.array([weights[number] for number in order], dtype=np.float64),
        gds=GDS(GDSNode(0, "Stub", "stub", None, None, 1.0)),
        db=None,
        kind="complete",
    )


def numbers(tree: FlatOS, indices) -> set[int]:
    """The node numbers (``row_id``) of *indices* in a :func:`make_tree` tree."""
    return {int(tree.row_id[i]) for i in indices}


@pytest.fixture()
def chain_tree() -> FlatOS:
    """0 — 1 — 2 — 3 — 4 with increasing weights at depth."""
    structure = {0: [1], 1: [2], 2: [3], 3: [4]}
    weights = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 5.0}
    return make_tree(structure, weights)


@pytest.fixture()
def star_tree() -> FlatOS:
    """Root with five leaves of distinct weights."""
    structure = {0: [1, 2, 3, 4, 5]}
    weights = {0: 10.0, 1: 5.0, 2: 4.0, 3: 3.0, 4: 2.0, 5: 1.0}
    return make_tree(structure, weights)


@pytest.fixture()
def paper_figure4_tree() -> FlatOS:
    """The Figure 4 example tree (weights from the paper's node labels).

    Structure reconstructed from the DP table in the figure: depth-1
    children 2..6 of root 1; 3's children 7, 8, 9; 4's children 10, 11;
    6's child 12; 11's child 13; 12's child 14.
    """
    structure = {0: [2, 3, 4, 5, 6], 3: [7, 8, 9], 4: [10, 11], 6: [12], 11: [13], 12: [14]}
    weights = {
        0: 30.0, 2: 20.0, 3: 11.0, 4: 31.0, 5: 80.0, 6: 35.0,
        7: 10.0, 8: 15.0, 9: 5.0, 10: 13.0, 11: 30.0, 12: 12.0,
        13: 60.0, 14: 40.0,
    }
    return make_tree(structure, weights)
