"""Tests for the real-data storage tier (:mod:`repro.storage`).

Covers the three tentpole pieces — SQLite round-trip + backend, the
streaming DBLP XML loader, and the buffer pool — plus the satellite
behaviors: sqlite-backend results pinned node-for-node equal to the
in-memory backends (property-tested over random databases), buffer-pool
serving equal to fully-resident serving, schema-reference keywords,
automatic live compaction, and the CLI's ``--db`` / ``load-dblp``
surface with the pinned exit codes.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_ERROR, EXIT_OK, main
from repro.core.builder import EngineBuilder
from repro.core.options import QueryOptions
from repro.core.registry import backend_names
from repro.datasets.dblp import DBLPConfig, generate_dblp, small_dblp
from repro.datasets.tpch import small_tpch
from repro.db.mutation import Delete, Insert
from repro.errors import StorageError
from repro.storage import (
    BufferPool,
    PagedArray,
    dataset_kind,
    export_database,
    import_database,
    load_dblp_xml,
    open_dataset,
    write_dblp_xml,
)

FIXTURE_XML = Path(__file__).parent / "fixtures" / "dblp_sample.xml"


@lru_cache(maxsize=8)
def _session(seed: int):
    dataset = generate_dblp(
        DBLPConfig(n_authors=12, n_papers=20, n_conferences=3, seed=seed)
    )
    return EngineBuilder.from_dataset(dataset).build_session()


def _renders(session, keywords, **options):
    opts = QueryOptions(**options)
    return [
        (e.match.table, e.match.row_id, e.result.render())
        for e in session.keyword_query(keywords, options=opts)
    ]


# --------------------------------------------------------------------- #
# SQLite round-trip
# --------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("make", [small_dblp, small_tpch])
    def test_fingerprints_survive_the_round_trip(self, make, tmp_path) -> None:
        db = make().db
        path = tmp_path / "ds.sqlite"
        export_database(db, path)
        loaded = import_database(path)
        assert loaded.table_names == db.table_names
        for name in db.table_names:
            assert len(loaded.table(name)) == len(db.table(name))
            assert (
                loaded.table(name).content_fingerprint()
                == db.table(name).content_fingerprint()
            )

    def test_tombstone_slots_preserved(self, tmp_path) -> None:
        """Row ids are slot positions; deletions must round-trip as gaps."""
        session = EngineBuilder.from_dataset(small_dblp()).build_session()
        live = session.live_state()
        doomed = session.engine.db.table("author").pk_of_row(3)
        live.apply([Delete("writes", pk) for pk in self._writes_of(session, doomed)])
        live.apply([Delete("author", doomed)])
        db = session.engine.db
        path = tmp_path / "gappy.sqlite"
        export_database(db, path)
        loaded = import_database(path)
        for name in db.table_names:
            assert loaded.table(name).content_fingerprint() == db.table(
                name
            ).content_fingerprint()
        assert not loaded.table("author").has_pk(doomed)

    @staticmethod
    def _writes_of(session, author_pk):
        table = session.engine.db.table("writes")
        idx = table.schema.column_index("author_id")
        return [
            table.pk_of_row(row_id)
            for row_id, row in table.scan()
            if row[idx] == author_pk
        ]

    def test_missing_file_raises_storage_error(self, tmp_path) -> None:
        with pytest.raises(StorageError, match="no such SQLite file"):
            import_database(tmp_path / "nope.sqlite")

    def test_corrupt_file_raises_storage_error(self, tmp_path) -> None:
        path = tmp_path / "junk.sqlite"
        path.write_bytes(b"this is not a database")
        with pytest.raises(StorageError, match="not a repro SQLite file"):
            import_database(path)

    def test_overwrite_refused_by_default(self, tmp_path) -> None:
        path = tmp_path / "ds.sqlite"
        export_database(small_dblp().db, path)
        with pytest.raises(StorageError, match="refusing to overwrite"):
            export_database(small_dblp().db, path, overwrite=False)

    def test_dataset_kind_recorded(self, tmp_path) -> None:
        path = tmp_path / "ds.sqlite"
        export_database(small_dblp().db, path, dataset_kind="dblp")
        assert dataset_kind(path) == "dblp"


# --------------------------------------------------------------------- #
# DBLP XML loader
# --------------------------------------------------------------------- #
class TestDBLPLoader:
    def test_fixture_counts_pinned(self, tmp_path) -> None:
        report = load_dblp_xml(FIXTURE_XML, tmp_path / "dblp.sqlite")
        assert report.papers == 5
        assert report.authors == 6
        assert report.conferences == 4  # PVLDB, SIGMOD, TODS, VLDB
        assert report.years == 5
        assert report.writes == 9
        assert report.cites == 5
        assert report.skipped == 3  # no author, no year, duplicate key
        assert report.unresolved_citations == 1
        assert report.total_tuples == 5 + 6 + 4 + 5 + 9 + 5

    def test_limit_caps_accepted_papers(self, tmp_path) -> None:
        report = load_dblp_xml(FIXTURE_XML, tmp_path / "s.sqlite", limit=2)
        assert report.papers == 2

    def test_loaded_dataset_serves_queries(self, tmp_path) -> None:
        path = tmp_path / "dblp.sqlite"
        load_dblp_xml(FIXTURE_XML, path)
        assert dataset_kind(path) == "dblp"
        session = EngineBuilder.from_dataset(open_dataset(path)).build_session()
        entries = session.keyword_query(["Faloutsos"], l=6)
        assert entries
        assert "Christos Faloutsos" in entries[0].result.render()

    def test_malformed_xml_raises_storage_error(self, tmp_path) -> None:
        bad = tmp_path / "bad.xml"
        bad.write_text("<dblp><article key='x'>", encoding="utf-8")
        with pytest.raises(StorageError, match="malformed DBLP XML"):
            load_dblp_xml(bad, tmp_path / "out.sqlite")

    def test_renderer_round_trips_a_synthetic_dataset(self, tmp_path) -> None:
        dataset = small_dblp()
        xml = tmp_path / "synth.xml"
        write_dblp_xml(dataset, xml)
        report = load_dblp_xml(xml, tmp_path / "synth.sqlite")
        assert report.papers == len(dataset.db.table("paper"))
        assert report.cites == len(dataset.db.table("cites"))
        assert report.skipped == 0
        assert report.unresolved_citations == 0


# --------------------------------------------------------------------- #
# sqlite backend == in-memory backends (satellite 3)
# --------------------------------------------------------------------- #
class TestSqliteBackendEquality:
    def test_backend_registered(self) -> None:
        assert "sqlite" in backend_names()

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        l=st.integers(min_value=1, max_value=18),
        source=st.sampled_from(["complete", "prelim"]),
    )
    def test_results_node_for_node_equal(self, seed, l, source) -> None:
        session = _session(seed)
        expected = _renders(session, ["Faloutsos"], l=l, source=source)
        for backend in ("database", "sqlite"):
            got = _renders(
                session, ["Faloutsos"], l=l, source=source, backend=backend
            )
            assert got == expected, backend

    def test_complete_os_identical_across_random_subjects(self) -> None:
        session = _session(1)
        rng = np.random.default_rng(11)
        authors = len(session.engine.db.table("author"))
        for row_id in rng.choice(authors, size=5, replace=False):
            base = session.engine.complete_os("author", int(row_id))
            via_sql = session.engine.complete_os(
                "author", int(row_id), backend="sqlite"
            )
            assert (
                via_sql.to_object_summary().render()
                == base.to_object_summary().render()
            )
            assert via_sql.size == base.size

    def test_sql_statements_are_billed_as_io(self) -> None:
        # A fresh session, not the lru_cached one: another test may already
        # have memoised this very query there, and a cache hit issues no SQL.
        session = _session.__wrapped__(2)
        qi = session.engine.query_interface
        qi.reset_counters()
        session.keyword_query(
            ["Faloutsos"], options=QueryOptions(l=8, backend="sqlite")
        )
        assert qi.io_accesses > 0
        assert qi.rows_fetched > 0


# --------------------------------------------------------------------- #
# Buffer pool
# --------------------------------------------------------------------- #
class TestBufferPool:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_paged_array_reads_equal_base(self, data) -> None:
        n = data.draw(st.integers(min_value=1, max_value=200))
        base = np.arange(n, dtype=np.int32) * 3
        pool = BufferPool(256, page_bytes=32)  # 8 int32 per page
        paged = PagedArray(base, pool, "arr")
        idx = data.draw(st.integers(min_value=-n, max_value=n - 1))
        assert paged[idx] == base[idx]
        lo = data.draw(st.integers(min_value=0, max_value=n))
        hi = data.draw(st.integers(min_value=lo, max_value=n))
        np.testing.assert_array_equal(paged[lo:hi], base[lo:hi])
        fancy = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1), max_size=40
                )
            ),
            dtype=np.int64,
        )
        np.testing.assert_array_equal(paged[fancy], base[fancy])
        assert pool.resident_bytes <= 256

    def test_eviction_respects_capacity_and_pins(self) -> None:
        pool = BufferPool(64, page_bytes=32)
        base = np.arange(64, dtype=np.int32)  # 8 pages of 8 int32
        loads = [0]

        def loader_for(page_no: int):
            def loader() -> np.ndarray:
                loads[0] += 1
                return base[page_no * 8 : (page_no + 1) * 8]

            return loader

        first = pool.fetch("a", 0, loader_for(0))  # stays pinned
        np.testing.assert_array_equal(first, base[:8])
        for page in range(1, 8):
            got = pool.fetch("a", page, loader_for(page))
            pool.unpin("a", page)
            np.testing.assert_array_equal(got, base[page * 8 : (page + 1) * 8])
        assert pool.evictions > 0
        # the pinned page survived every eviction pass
        np.testing.assert_array_equal(pool.fetch("a", 0, loader_for(0)), base[:8])
        assert loads[0] == 8  # page 0 loaded exactly once
        stats = pool.stats()
        assert stats["pool_misses"] == 8
        assert stats["pool_hits"] >= 1

    def test_pool_serving_equals_resident_serving(self) -> None:
        dataset = small_dblp()
        plain = EngineBuilder.from_dataset(dataset).build_session()
        paged = (
            EngineBuilder.from_dataset(dataset)
            .with_buffer_pool(16 * 1024, page_bytes=512)
            .build_session()
        )
        for l in (4, 12):
            for source in ("complete", "prelim"):
                assert _renders(paged, ["Faloutsos"], l=l, source=source) == (
                    _renders(plain, ["Faloutsos"], l=l, source=source)
                )
        pool = paged.engine.buffer_pool
        assert pool is not None
        assert pool.misses > 0
        assert pool.resident_bytes <= 16 * 1024

    def test_pool_counters_surface_in_cache_stats(self) -> None:
        session = (
            EngineBuilder.from_dataset(small_dblp())
            .with_buffer_pool(8 * 1024, page_bytes=512)
            .build_session()
        )
        session.keyword_query(["Faloutsos"], l=8)
        stats = session.cache_stats()
        assert stats.pool_misses > 0
        assert stats.as_dict()["pool_misses"] == stats.pool_misses

    def test_page_order_expansion_preserves_trees(self) -> None:
        """PagedDataGraph flips the frontier into page order; trees must
        not change (the keys encode original frontier positions)."""
        dataset = small_dblp()
        plain = EngineBuilder.from_dataset(dataset).build_session()
        paged = (
            EngineBuilder.from_dataset(dataset)
            .with_buffer_pool(4 * 1024, page_bytes=256)
            .build_session()
        )
        assert paged.engine.data_graph.prefers_page_order
        for row_id in (0, 3, 7):
            assert (
                paged.complete_os("author", row_id).to_object_summary().render()
                == plain.complete_os("author", row_id).to_object_summary().render()
            )


# --------------------------------------------------------------------- #
# Schema-reference keywords (satellite 2)
# --------------------------------------------------------------------- #
class TestSchemaReferences:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        keywords=st.lists(
            st.sampled_from(
                ["Faloutsos", "Christos", "zzznothing", "Mining"]
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_no_schema_token_means_plain_results(self, seed, keywords) -> None:
        """Queries with no schema-name tokens resolve exactly as plain
        conjunctive keyword search (the pre-PR semantics)."""
        searcher = _session(seed).engine.searcher
        assert all(searcher.schema_reference(k) is None for k in keywords)
        postings = searcher.index.conjunctive(keywords)
        expected = sorted(
            (
                (p.table, p.row_id)
                for p in postings
            ),
            key=lambda pair: (
                -searcher.store.importance(pair[0], pair[1]),
                pair[0],
                pair[1],
            ),
        )
        got = [(m.table, m.row_id) for m in searcher.search(keywords)]
        assert got == expected

    def test_schema_reference_resolution(self) -> None:
        searcher = _session(0).engine.searcher
        assert searcher.schema_reference("author") == frozenset({"author"})
        assert searcher.schema_reference("papers") == frozenset({"paper"})
        assert searcher.schema_reference("Author0") is None
        assert searcher.schema_reference("faloutsos") is None

    def test_reference_boosts_named_relation(self) -> None:
        session = EngineBuilder.from_dataset(small_dblp()).build_session()
        # an author sharing a token with paper titles, so one keyword
        # matches subjects in both R_DS relations
        session.live_state().apply(
            [Insert("author", {"author_id": 97000, "name": "Adaptive Quill"})]
        )
        searcher = session.engine.searcher
        plain = searcher.search(["Adaptive"])
        assert {m.table for m in plain} == {"author", "paper"}
        for boost_kw, table in (("papers", "paper"), ("authors", "author")):
            boosted = searcher.search([boost_kw, "Adaptive"])
            assert {(m.table, m.row_id) for m in plain} == {
                (m.table, m.row_id) for m in boosted
            }
            band = sum(1 for m in plain if m.table == table)
            assert all(m.table == table for m in boosted[:band])

    def test_all_reference_query_lists_top_subjects(self) -> None:
        session = EngineBuilder.from_dataset(small_dblp()).build_session()
        matches = session.engine.searcher.search(["author"])
        assert len(matches) == len(session.engine.db.table("author"))
        importances = [m.importance for m in matches]
        assert importances == sorted(importances, reverse=True)


# --------------------------------------------------------------------- #
# Automatic live compaction (satellite 1)
# --------------------------------------------------------------------- #
class TestAutoCompaction:
    def test_overlay_folds_at_threshold_and_queries_hold(self) -> None:
        session = EngineBuilder.from_dataset(small_dblp()).build_session()
        live = session.live_state()
        live.auto_compact_threshold = 4
        before = _renders(session, ["Faloutsos"], l=10)
        for i in range(6):
            live.apply(
                [Insert("author", {"author_id": 91000 + i, "name": f"Zz P{i}"})]
            )
        stats = live.stats()
        assert stats["auto_compactions"] >= 1
        assert stats["overlay_size"] == 0
        assert not live.graph.overlay_size and not live.index.overlay_size
        assert _renders(session, ["Faloutsos"], l=10) == before
        # the folded inserts are really there
        assert session.engine.searcher.search(["Zz"])

    def test_disabled_by_default(self) -> None:
        session = EngineBuilder.from_dataset(small_dblp()).build_session()
        live = session.live_state()
        assert live.auto_compact_threshold is None
        live.apply([Insert("author", {"author_id": 95000, "name": "Qq R"})])
        stats = live.stats()
        assert stats["auto_compactions"] == 0
        assert stats["overlay_size"] > 0


# --------------------------------------------------------------------- #
# CLI surface (satellite 6)
# --------------------------------------------------------------------- #
class TestStorageCLI:
    def test_load_dblp_then_query_db(self, tmp_path, capsys) -> None:
        out = tmp_path / "dblp.sqlite"
        assert (
            main(["load-dblp", "--xml", str(FIXTURE_XML), "--out", str(out)])
            == EXIT_OK
        )
        assert "total tuples" in capsys.readouterr().out
        code = main(
            ["query", "--db", str(out), "--keywords", "Faloutsos", "--l", "6"]
        )
        assert code == EXIT_OK
        assert "Christos Faloutsos" in capsys.readouterr().out

    def test_missing_db_file_is_exit_two(self, tmp_path, capsys) -> None:
        code = main(
            ["query", "--db", str(tmp_path / "nope.sqlite"), "--keywords", "x"]
        )
        assert code == EXIT_ERROR
        assert "no such SQLite file" in capsys.readouterr().err

    def test_corrupt_db_file_is_exit_two(self, tmp_path, capsys) -> None:
        path = tmp_path / "corrupt.sqlite"
        path.write_bytes(b"garbage bytes, not sqlite")
        code = main(["query", "--db", str(path), "--keywords", "x"])
        assert code == EXIT_ERROR
        assert "not a repro SQLite file" in capsys.readouterr().err

    def test_db_with_shards_rejected(self, tmp_path, capsys) -> None:
        path = tmp_path / "ds.sqlite"
        export_database(small_dblp().db, path, dataset_kind="dblp")
        code = main(
            ["serve", "--db", str(path), "--shards", "2", "--port", "0"]
        )
        assert code == EXIT_ERROR
        assert "--shards" in capsys.readouterr().err

    def test_pool_bytes_with_shards_rejected(self, capsys) -> None:
        # the workers would serve fully resident and report zero pool counters
        code = main(
            ["serve", "--pool-bytes", "65536", "--shards", "2", "--port", "0"]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "--pool-bytes" in err and "--shards" in err

    def test_precompute_and_pool_over_db(self, tmp_path, capsys) -> None:
        db_path = tmp_path / "ds.sqlite"
        export_database(small_dblp().db, db_path, dataset_kind="dblp")
        snap = tmp_path / "snap.d"
        assert (
            main(
                [
                    "precompute", "--db", str(db_path),
                    "--out", str(snap), "--table", "author",
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        code = main(
            [
                "query", "--db", str(db_path),
                "--snapshot", str(snap), "--source", "complete",
                "--pool-bytes", "65536",
                "--keywords", "Faloutsos", "--l", "8",
            ]
        )
        assert code == EXIT_OK
        assert "result 1" in capsys.readouterr().out
