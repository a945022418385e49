"""Tests for the persistence tier: snapshot format, fingerprinting,
precompute pipeline, builder/session wiring, and the cache disk tier."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.builder import EngineBuilder
from repro.core.cache import SummaryCache
from repro.core.options import QueryOptions, Source
from repro.core.os_tree import FlatOS
from repro.datasets.dblp import small_dblp
from repro.errors import (
    PersistError,
    SnapshotFormatError,
    SnapshotMismatchError,
    SummaryError,
)
from repro.persist import (
    FORMAT_VERSION,
    Snapshot,
    engine_fingerprint,
    precompute_snapshot,
    select_subjects,
    store_digest,
    write_snapshot,
)
from repro.ranking.store import ImportanceStore
from repro.search.inverted_index import ArrayInvertedIndex, InvertedIndex
from repro.session import Session

COMPLETE = QueryOptions(source=Source.COMPLETE)


# --------------------------------------------------------------------- #
# Arena pack/unpack
# --------------------------------------------------------------------- #
class TestFlatArena:
    def test_pack_then_slice_is_identical(self, dblp_engine) -> None:
        trees = [dblp_engine.complete_os_flat("author", row) for row in (0, 3, 7)]
        arena = FlatOS.pack_arena(trees)
        assert arena["indptr"].tolist() == [
            0,
            trees[0].size,
            trees[0].size + trees[1].size,
            sum(t.size for t in trees),
        ]
        for i, tree in enumerate(trees):
            loaded = FlatOS.from_arena(
                arena, i, tree.gds, db=dblp_engine.db
            )
            for field in FlatOS.ARENA_FIELDS:
                assert np.array_equal(
                    getattr(loaded, field), getattr(tree, field)
                ), field

    def test_slices_are_views_not_copies(self, dblp_engine) -> None:
        trees = [dblp_engine.complete_os_flat("author", row) for row in (0, 1)]
        arena = FlatOS.pack_arena(trees)
        loaded = FlatOS.from_arena(arena, 1, trees[1].gds)
        assert loaded.weight.base is arena["weight"]

    def test_out_of_range_index_raises(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os_flat("author", 0)
        arena = FlatOS.pack_arena([tree])
        with pytest.raises(SummaryError, match="arena tree index"):
            FlatOS.from_arena(arena, 1, tree.gds)

    def test_empty_arena(self) -> None:
        arena = FlatOS.pack_arena([])
        assert arena["indptr"].tolist() == [0]
        assert arena["parent"].size == 0


# --------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------- #
class TestFingerprint:
    def test_deterministic_across_rebuilds(self, dblp_engine) -> None:
        data = small_dblp(seed=7)  # regenerate the same dataset
        from repro.ranking.objectrank import compute_objectrank
        from repro.core.engine import SizeLEngine

        twin = SizeLEngine(
            data.db,
            {"author": data.author_gds(), "paper": data.paper_gds()},
            compute_objectrank(data.db, data.ga1()),
        )
        assert engine_fingerprint(
            twin.db, twin.gds_by_root, twin.theta
        ) == engine_fingerprint(
            dblp_engine.db, dblp_engine.gds_by_root, dblp_engine.theta
        )
        assert store_digest(twin.store) == store_digest(dblp_engine.store)

    def test_data_change_changes_fingerprint(self, dblp_engine) -> None:
        before = engine_fingerprint(
            dblp_engine.db, dblp_engine.gds_by_root, dblp_engine.theta
        )
        other = small_dblp(seed=8)
        from repro.core.engine import SizeLEngine

        twin = SizeLEngine(
            other.db,
            {"author": other.author_gds(), "paper": other.paper_gds()},
            ImportanceStore.uniform(other.db),
        )
        after = engine_fingerprint(twin.db, twin.gds_by_root, twin.theta)
        assert before != after

    def test_theta_changes_fingerprint(self, dblp_engine) -> None:
        assert engine_fingerprint(
            dblp_engine.db, dblp_engine.gds_by_root, 0.7
        ) != engine_fingerprint(dblp_engine.db, dblp_engine.gds_by_root, 0.8)

    def test_store_digest_tracks_values(self, dblp_engine) -> None:
        assert store_digest(dblp_engine.store) != store_digest(
            dblp_engine.store.scaled(2.0)
        )


# --------------------------------------------------------------------- #
# Snapshot format
# --------------------------------------------------------------------- #
class TestSnapshotFormat:
    def test_manifest_contents(self, dblp_snapshot, dblp_engine) -> None:
        manifest = dblp_snapshot.manifest
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["fingerprint"] == engine_fingerprint(
            dblp_engine.db, dblp_engine.gds_by_root, dblp_engine.theta
        )
        assert manifest["store_digest"] == store_digest(dblp_engine.store)
        assert manifest["l_values"] is None  # complete OSs: valid for all l
        assert len(manifest["subjects"]) == len(dblp_engine.db.table("author"))
        assert manifest["checksums"]  # one per arena file

    def test_atomic_write_leaves_no_temp_dirs(
        self, dblp_engine, tmp_path
    ) -> None:
        path = tmp_path / "snap"
        tree = dblp_engine.complete_os_flat("author", 0)
        write_snapshot(path, dblp_engine, [("author", 0)], [tree])
        assert path.is_dir()
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrite_required_to_replace(self, dblp_engine, tmp_path) -> None:
        path = tmp_path / "snap"
        tree = dblp_engine.complete_os_flat("author", 0)
        write_snapshot(path, dblp_engine, [("author", 0)], [tree])
        with pytest.raises(SnapshotFormatError, match="already exists"):
            write_snapshot(path, dblp_engine, [("author", 0)], [tree])
        write_snapshot(
            path, dblp_engine, [("author", 1)],
            [dblp_engine.complete_os_flat("author", 1)], overwrite=True,
        )
        assert ("author", 1) in Snapshot.open(path)

    def test_not_a_snapshot_dir(self, tmp_path) -> None:
        with pytest.raises(SnapshotFormatError, match="no manifest.json"):
            Snapshot.open(tmp_path)

    def test_corrupt_manifest_rejected(self, dblp_engine, tmp_path) -> None:
        path = tmp_path / "snap"
        write_snapshot(
            path, dblp_engine, [("author", 0)],
            [dblp_engine.complete_os_flat("author", 0)],
        )
        (path / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotFormatError, match="corrupt snapshot manifest"):
            Snapshot.open(path)

    def test_corrupt_arena_rejected_by_checksum(
        self, dblp_engine, tmp_path
    ) -> None:
        path = tmp_path / "snap"
        write_snapshot(
            path, dblp_engine, [("author", 0)],
            [dblp_engine.complete_os_flat("author", 0)],
        )
        target = path / "trees_weight.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="checksum mismatch"):
            Snapshot.open(path)
        # verification can be skipped explicitly (trusted storage)
        assert Snapshot.open(path, verify=False).subjects

    def test_missing_arena_file_rejected(self, dblp_engine, tmp_path) -> None:
        path = tmp_path / "snap"
        write_snapshot(
            path, dblp_engine, [("author", 0)],
            [dblp_engine.complete_os_flat("author", 0)],
        )
        (path / "trees_parent.npy").unlink()
        with pytest.raises(SnapshotFormatError, match="missing arena file"):
            Snapshot.open(path)

    def test_future_format_version_rejected(
        self, dblp_engine, tmp_path
    ) -> None:
        path = tmp_path / "snap"
        write_snapshot(
            path, dblp_engine, [("author", 0)],
            [dblp_engine.complete_os_flat("author", 0)],
        )
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match="unsupported snapshot format"):
            Snapshot.open(path)

    def test_tampered_manifest_subjects_rejected(
        self, dblp_engine, tmp_path
    ) -> None:
        """The manifest is self-checksummed: a flipped subject row id must
        be caught at open, never silently serve another subject's tree."""
        path = tmp_path / "snap"
        write_snapshot(
            path, dblp_engine, [("author", 0), ("author", 1)],
            [dblp_engine.complete_os_flat("author", r) for r in (0, 1)],
        )
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["subjects"][0] = ["author", 7]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match="self-checksum"):
            Snapshot.open(path)
        with pytest.raises(SnapshotFormatError, match="self-checksum"):
            Snapshot.open(path, verify=False)  # always checked: it is cheap

    def test_restricted_l_values_snapshot_not_served(
        self, dblp_engine, tmp_path
    ) -> None:
        """A (future-format) snapshot claiming restricted l-values must not
        be over-served by the disk tier, which hands trees to every l."""
        from repro.persist.snapshot import _manifest_checksum

        path = tmp_path / "snap"
        write_snapshot(
            path, dblp_engine, [("author", 0)],
            [dblp_engine.complete_os_flat("author", 0)],
        )
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["l_values"] = [5]
        manifest["manifest_checksum"] = _manifest_checksum(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
        cache = SummaryCache(
            dblp_engine, snapshot=Snapshot.open(path, verify=False)
        )
        cache.complete_os_flat("author", 0)
        stats = cache.stats()
        assert stats.disk_hits == 0
        assert stats.disk_misses == 1
        assert stats.tree_generations == 1


# --------------------------------------------------------------------- #
# Snapshot-served structures
# --------------------------------------------------------------------- #
class TestSnapshotStructures:
    def test_data_graph_round_trips(self, dblp_snapshot, dblp_engine) -> None:
        fresh = dblp_engine.data_graph
        loaded = dblp_snapshot.data_graph()
        for fresh_adj, loaded_adj in zip(
            fresh.adjacencies(), loaded.adjacencies()
        ):
            assert (fresh_adj.owner, fresh_adj.column) == (
                loaded_adj.owner, loaded_adj.column,
            )
            assert np.array_equal(fresh_adj.forward, loaded_adj.forward)
            assert np.array_equal(
                fresh_adj.backward_indptr, loaded_adj.backward_indptr
            )
            assert np.array_equal(
                fresh_adj.backward_indices, loaded_adj.backward_indices
            )

    def test_array_index_matches_in_memory_index(
        self, dblp_snapshot, dblp_engine
    ) -> None:
        fresh: InvertedIndex = dblp_engine.searcher.index
        loaded = dblp_snapshot.search_index(dblp_engine.db)
        assert isinstance(loaded, ArrayInvertedIndex)
        assert loaded.vocabulary_size == fresh.vocabulary_size
        for token in ("faloutsos", "christos", "ZZZ-absent", "the"):
            assert loaded.lookup(token) == fresh.lookup(token)
        assert loaded.conjunctive(["Christos Faloutsos"]) == fresh.conjunctive(
            ["Christos Faloutsos"]
        )

    def test_store_round_trips(self, dblp_snapshot, dblp_engine) -> None:
        loaded = dblp_snapshot.store()
        for table in dblp_engine.store.tables():
            assert np.array_equal(
                loaded.array(table), dblp_engine.store.array(table)
            )

    def test_load_flat_absent_subject_is_none(self, dblp_snapshot, dblp_engine) -> None:
        gds = dblp_engine.gds_for("paper")
        assert dblp_snapshot.load_flat("paper", 0, gds) is None


# --------------------------------------------------------------------- #
# Mismatch rejection
# --------------------------------------------------------------------- #
class TestMismatchRejection:
    def test_different_dataset_rejected(self, dblp_snapshot) -> None:
        other = small_dblp(seed=9)
        builder = (
            EngineBuilder.from_dataset(other).with_snapshot(dblp_snapshot)
        )
        with pytest.raises(SnapshotMismatchError, match="fingerprint"):
            builder.build()

    def test_cross_dataset_snapshot_fails_with_mismatch_not_ranking_error(
        self, dblp_snapshot, tpch
    ) -> None:
        """A DBLP snapshot attached to a TPC-H build must raise the clear
        mismatch error BEFORE the snapshot's store/index are used to
        construct anything (which would fail with a confusing
        RankingError about missing tables instead)."""
        builder = EngineBuilder.from_dataset(tpch).with_snapshot(dblp_snapshot)
        with pytest.raises(SnapshotMismatchError, match="fingerprint"):
            builder.build()

    def test_different_store_rejected(self, dblp_snapshot, dblp) -> None:
        builder = EngineBuilder.from_dataset(
            dblp, store=ImportanceStore.uniform(dblp.db)
        ).with_snapshot(dblp_snapshot)
        with pytest.raises(SnapshotMismatchError, match="importance store"):
            builder.build()

    def test_snapshot_store_skips_digest_check(self, dblp_snapshot, dblp) -> None:
        # no explicit store: the builder loads it from the snapshot, which
        # is consistent by construction
        session = EngineBuilder.from_dataset(dblp).with_snapshot(
            dblp_snapshot
        ).build_session()
        assert session.cache.snapshot is dblp_snapshot

    def test_attach_to_cache_validates(self, dblp_snapshot) -> None:
        other = small_dblp(seed=9)
        engine = EngineBuilder.from_dataset(
            other, store=ImportanceStore.uniform(other.db)
        ).build()
        with pytest.raises(SnapshotMismatchError):
            SummaryCache(engine, snapshot=dblp_snapshot)

    def test_revalidation_notices_rows_inserted_after_first_attach(
        self, tmp_path
    ) -> None:
        """Validation must not be memoised per engine: inserting rows after
        a successful attach invalidates the snapshot, and a later attach of
        the same Snapshot object must reject it."""
        data = small_dblp(seed=11)
        engine = EngineBuilder.from_dataset(
            data, store=ImportanceStore.uniform(data.db)
        ).build()
        write_snapshot(
            tmp_path / "snap", engine, [("author", 0)],
            [engine.complete_os_flat("author", 0)],
        )
        snapshot = Snapshot.open(tmp_path / "snap")
        SummaryCache(engine, snapshot=snapshot)  # validates cleanly
        n = len(data.db.table("author"))
        data.db.insert("author", {"author_id": 10_000 + n, "name": "New Arrival"})
        with pytest.raises(SnapshotMismatchError, match="fingerprint"):
            SummaryCache(engine, snapshot=snapshot)


# --------------------------------------------------------------------- #
# Subject selection
# --------------------------------------------------------------------- #
class TestSelectSubjects:
    def test_by_table(self, dblp_engine) -> None:
        subjects = select_subjects(dblp_engine, table="author")
        assert subjects == [
            ("author", row) for row in range(len(dblp_engine.db.table("author")))
        ]

    def test_by_ids(self, dblp_engine) -> None:
        assert select_subjects(
            dblp_engine, table="author", row_ids=[3, 1]
        ) == [("author", 3), ("author", 1)]

    def test_by_ids_deduplicates_preserving_order(self, dblp_engine) -> None:
        assert select_subjects(
            dblp_engine, table="author", row_ids=[3, 1, 3, 1, 2]
        ) == [("author", 3), ("author", 1), ("author", 2)]

    def test_snapshot_built_engine_cannot_precompute(
        self, dblp, dblp_snapshot, tmp_path, monkeypatch
    ) -> None:
        """An engine serving its index from a snapshot fails fast — before
        any generation — when asked to precompute."""
        engine = EngineBuilder.from_dataset(dblp).with_snapshot(
            dblp_snapshot
        ).build()

        def exploding(*args, **kwargs):
            raise AssertionError("generated a tree before the index check")

        monkeypatch.setattr(engine, "complete_os_flat", exploding)
        with pytest.raises(SnapshotFormatError, match="no to_arrays"):
            precompute_snapshot(engine, [("author", 0)], tmp_path / "s")

    def test_ids_require_table(self, dblp_engine) -> None:
        with pytest.raises(PersistError, match="requires table"):
            select_subjects(dblp_engine, row_ids=[1])

    def test_ids_out_of_range(self, dblp_engine) -> None:
        with pytest.raises(PersistError, match="out of range"):
            select_subjects(dblp_engine, table="author", row_ids=[10_000])

    def test_non_rds_table_rejected(self, dblp_engine) -> None:
        with pytest.raises(SummaryError, match="no G_DS registered"):
            select_subjects(dblp_engine, table="writes")

    def test_top_keywords(self, dblp_engine) -> None:
        subjects = select_subjects(dblp_engine, top_keywords=5)
        assert len(subjects) == 5
        assert len(set(subjects)) == 5
        for table, row_id in subjects:
            assert table in dblp_engine.gds_by_root
        # deterministic: same call, same order
        assert subjects == select_subjects(dblp_engine, top_keywords=5)

    def test_selector_conflicts(self, dblp_engine) -> None:
        with pytest.raises(PersistError, match="mutually exclusive"):
            select_subjects(dblp_engine, table="author", top_keywords=3)
        with pytest.raises(PersistError, match="pick a subject selector"):
            select_subjects(dblp_engine)


# --------------------------------------------------------------------- #
# Precompute pipeline
# --------------------------------------------------------------------- #
class TestPrecompute:
    def test_empty_subjects_rejected(self, dblp_engine, tmp_path) -> None:
        with pytest.raises(PersistError, match="no subjects"):
            precompute_snapshot(dblp_engine, [], tmp_path / "snap")

    def test_existing_out_fails_before_any_generation(
        self, dblp_engine, tmp_path, monkeypatch
    ) -> None:
        """A forgotten overwrite= must fail up front, not after paying for
        the whole offline generation run."""
        target = tmp_path / "snap"
        target.mkdir()

        def exploding(*args, **kwargs):  # any generation means we paid
            raise AssertionError("generated a tree before the exists check")

        monkeypatch.setattr(dblp_engine, "complete_os_flat", exploding)
        with pytest.raises(SnapshotFormatError, match="already exists"):
            precompute_snapshot(dblp_engine, [("author", 0)], target)


# --------------------------------------------------------------------- #
# Serving integration (cache disk tier + Session)
# --------------------------------------------------------------------- #
class TestDiskTierServing:
    def test_memory_miss_served_from_disk_without_generation(
        self, dblp_engine, dblp_snapshot
    ) -> None:
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        result = cache.run("author", 2, COMPLETE)
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.tree_generations == 0
        fresh = dblp_engine.run("author", 2, COMPLETE)
        assert result.selected_uids == fresh.selected_uids
        assert result.importance == pytest.approx(fresh.importance)

    def test_absent_subject_counts_disk_miss(
        self, dblp_engine, dblp_snapshot
    ) -> None:
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        cache.complete_os_flat("paper", 0)  # only authors were snapshotted
        stats = cache.stats()
        assert stats.disk_misses == 1
        assert stats.tree_generations == 1

    def test_invalidate_masks_disk_entry(
        self, dblp_engine, dblp_snapshot
    ) -> None:
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        cache.complete_os_flat("author", 1)
        assert cache.stats().disk_hits == 1
        cache.invalidate("author", 1)
        cache.complete_os_flat("author", 1)
        stats = cache.stats()
        assert stats.snapshot_stale == 1
        assert stats.tree_generations == 1  # regenerated, not re-served
        # unaffected subjects still serve from disk
        cache.complete_os_flat("author", 2)
        assert cache.stats().disk_hits == 2

    def test_bare_invalidate_masks_whole_disk_tier_until_reattach(
        self, dblp_engine, dblp_snapshot
    ) -> None:
        """invalidate() with no arguments disables the entire disk tier —
        every snapshot tree predates the refresh — and attach_snapshot
        (which re-validates) is the way to re-enable it."""
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        cache.complete_os_flat("author", 1)
        assert cache.stats().disk_hits == 1
        cache.invalidate()
        cache.complete_os_flat("author", 1)
        cache.complete_os_flat("author", 2)
        stats = cache.stats()
        assert stats.disk_hits == 1  # nothing more served from disk
        assert stats.tree_generations == 2
        assert stats.snapshot_stale == 2
        cache.attach_snapshot(dblp_snapshot)  # revalidates; clears the masks
        cache.complete_os_flat("author", 3)  # was masked before the re-attach
        assert cache.stats().disk_hits == 2

    def test_session_snapshot_path_round_trip(
        self, dblp, dblp_snapshot
    ) -> None:
        session = Session.from_dataset(dblp, snapshot=dblp_snapshot.path)
        result = session.size_l("author", 1, 8, options=COMPLETE.replace(l=8))
        assert result.size == 8
        stats = session.cache_stats()
        assert stats.disk_hits == 1
        assert stats.tree_generations == 0
        assert session.describe()["snapshot"]["subjects"] == len(dblp_snapshot)

    def test_keyword_query_over_snapshot_index(
        self, dblp, dblp_snapshot
    ) -> None:
        warm = Session.from_dataset(dblp, snapshot=dblp_snapshot)
        cold = Session.from_dataset(dblp)
        options = COMPLETE.replace(l=6)
        warm_results = warm.keyword_query("Faloutsos", options=options)
        cold_results = cold.keyword_query("Faloutsos", options=options)
        assert [e.match.row_id for e in warm_results] == [
            e.match.row_id for e in cold_results
        ]
        assert [e.result.selected_uids for e in warm_results] == [
            e.result.selected_uids for e in cold_results
        ]
        assert warm.cache_stats().disk_hits == len(warm_results)
