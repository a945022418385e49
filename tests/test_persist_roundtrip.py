"""Round-trip property test: snapshot-loaded FlatOS == freshly generated.

For randomly drawn subjects and l-values, a complete OS loaded from the
snapshot arena must be node-for-node identical to one generated fresh
from the data graph, and every size-l algorithm must make the *same*
selection on both representations — the guarantee that lets the disk
tier stay outside the cache key (serving from disk is indistinguishable
from generating).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.bottom_up import bottom_up_size_l
from repro.core.dp import optimal_size_l
from repro.core.os_tree import FlatOS
from repro.core.top_path import top_path_size_l

ALGORITHMS = {
    "dp": optimal_size_l,
    "bottom_up": bottom_up_size_l,
    "top_path": top_path_size_l,
}

#: Deterministic "random" draws: the property holds for any subject and
#: any l; the seeds keep the suite's runtime and failures reproducible.
N_SUBJECTS = 8
N_L_VALUES = 4


def _draw_cases(dblp_engine):
    rng = random.Random(1234)
    tables = sorted(dblp_engine.gds_by_root)
    cases = []
    for _ in range(N_SUBJECTS):
        table = rng.choice(tables)
        row_id = rng.randrange(len(dblp_engine.db.table(table)))
        l_values = [rng.randint(1, 40) for _ in range(N_L_VALUES)]
        cases.append((table, row_id, l_values))
    return cases


@pytest.fixture(scope="module")
def author_and_paper_snapshot(dblp_engine, tmp_path_factory):
    """A snapshot covering the drawn subjects of both R_DS tables."""
    from repro.persist import Snapshot, precompute_snapshot

    subjects = sorted(
        {(table, row) for table, row, _ls in _draw_cases(dblp_engine)}
    )
    path = tmp_path_factory.mktemp("roundtrip") / "snap"
    precompute_snapshot(dblp_engine, subjects, path)
    return Snapshot.open(path)


class TestSnapshotRoundTrip:
    def test_loaded_tree_is_node_for_node_identical(
        self, dblp_engine, author_and_paper_snapshot
    ) -> None:
        for table, row_id, _l_values in _draw_cases(dblp_engine):
            fresh = dblp_engine.complete_os_flat(table, row_id)
            loaded = author_and_paper_snapshot.load_flat(
                table, row_id, dblp_engine.gds_for(table), dblp_engine.db
            )
            assert loaded is not None
            assert loaded.size == fresh.size
            for field in FlatOS.ARENA_FIELDS:
                assert np.array_equal(
                    getattr(loaded, field), getattr(fresh, field)
                ), f"{table}#{row_id} field {field} diverged"

    def test_size_l_selections_identical_across_algorithms(
        self, dblp_engine, author_and_paper_snapshot
    ) -> None:
        for table, row_id, l_values in _draw_cases(dblp_engine):
            fresh = dblp_engine.complete_os_flat(table, row_id)
            loaded = author_and_paper_snapshot.load_flat(
                table, row_id, dblp_engine.gds_for(table), dblp_engine.db
            )
            for l in l_values:  # noqa: E741
                for name, algorithm in ALGORITHMS.items():
                    from_fresh = algorithm(fresh, l)
                    from_disk = algorithm(loaded, l)
                    assert from_fresh.selected_uids == from_disk.selected_uids, (
                        f"{name} diverged on {table}#{row_id} at l={l}"
                    )
                    assert from_fresh.importance == pytest.approx(
                        from_disk.importance
                    )
