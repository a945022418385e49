"""Tests for the Session facade: integrated caching, streaming
iter_keyword_query laziness, batched size_l_many, and the uniform
``l >= 1`` validation across every entry point."""

from __future__ import annotations

import inspect

import pytest

from repro.core.cache import SummaryCache
from repro.core.options import Algorithm, QueryOptions, Source
from repro.errors import InvalidSizeError, SummaryError
from repro.session import Session


@pytest.fixture
def session(dblp_engine) -> Session:
    return Session(dblp_engine)


class TestSessionBasics:
    def test_from_dataset(self, dblp) -> None:
        session = Session.from_dataset(dblp)
        results = session.keyword_query("Faloutsos", l=5)
        assert len(results) == 3

    def test_size_l_is_cached(self, session: Session) -> None:
        first = session.size_l("author", 1, l=8)
        second = session.size_l("author", 1, l=8)
        # hits are per-call copies sharing the payload; the first caller's
        # miss-result keeps cached=False
        assert second.summary is first.summary
        assert second.selected_uids == first.selected_uids
        assert second.stats.cached is True
        assert first.stats.cached is False
        assert session.cache_stats().hits >= 1

    def test_size_l_many(self, session: Session) -> None:
        results = session.size_l_many([("author", 0), ("author", 1)], l=5)
        assert len(results) == 2
        assert all(r.size == 5 for r in results)

    def test_defaults_seed_queries(self, dblp_engine) -> None:
        session = Session(
            dblp_engine,
            defaults=QueryOptions(l=4, algorithm=Algorithm.BOTTOM_UP),
        )
        result = session.size_l("author", 0)
        assert result.size == 4
        assert result.algorithm == "bottom_up"

    def test_describe_includes_cache_and_defaults(self, session: Session) -> None:
        info = session.describe()
        assert info["cache"] == session.cache_stats().as_dict()
        assert info["defaults"]["algorithm"] == "top_path"

    def test_invalidate(self, session: Session) -> None:
        session.size_l("author", 1, l=5)
        session.invalidate()
        assert session.cache_stats().cached_subjects == 0

    def test_keyword_query_results_cached_across_calls(
        self, session: Session
    ) -> None:
        first = session.keyword_query("Faloutsos", l=6)
        before = session.cache_stats().misses
        second = session.keyword_query("Faloutsos", l=6)
        assert session.cache_stats().misses == before
        assert [a.result.selected_uids for a in first] == [
            b.result.selected_uids for b in second
        ]
        assert all(b.result.stats.cached for b in second)


class TestStreamingLaziness:
    def test_first_result_before_later_os_generated(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        computed: list[tuple[str, int]] = []
        original = session.cache.run

        def counting_run(rds_table, row_id, options):
            computed.append((rds_table, row_id))
            return original(rds_table, row_id, options)

        session.cache.run = counting_run  # type: ignore[method-assign]
        stream = session.iter_keyword_query("Faloutsos", l=5)
        assert computed == []  # nothing computed until consumed
        first = next(stream)
        assert first.result.size == 5
        assert len(computed) == 1  # later OSs not yet generated
        rest = list(stream)
        assert len(computed) == 1 + len(rest)

    def test_engine_iterator_is_also_lazy(self, dblp_engine) -> None:
        computed: list[int] = []
        original = dblp_engine.run

        def counting_run(rds_table, row_id, options):
            computed.append(row_id)
            return original(rds_table, row_id, options)

        dblp_engine.run = counting_run  # type: ignore[method-assign]
        try:
            stream = dblp_engine.iter_keyword_query("Faloutsos", l=5)
            next(stream)
            assert len(computed) == 1
        finally:
            del dblp_engine.run

    def test_options_validated_eagerly(self, session: Session) -> None:
        # the error surfaces at call time, not on first next()
        with pytest.raises(SummaryError, match="unknown algorithm"):
            session.iter_keyword_query(
                "Faloutsos", options=QueryOptions(algorithm="magic")
            )

    def test_batch_equals_stream(self, session: Session) -> None:
        batch = session.keyword_query("Faloutsos", l=7)
        stream = list(session.iter_keyword_query("Faloutsos", l=7))
        assert [b.match.row_id for b in batch] == [s.match.row_id for s in stream]


class TestValidationBeforeGeneration:
    """A bad algorithm name must never cost an OS generation (the old
    SummaryCache.size_l generated the complete OS before validating)."""

    def test_cache_validates_before_generating(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        generated: list[tuple[str, int]] = []
        original = dblp_engine.complete_os

        def counting_complete_os(rds_table, row_id, *args, **kwargs):
            generated.append((rds_table, row_id))
            return original(rds_table, row_id, *args, **kwargs)

        dblp_engine.complete_os = counting_complete_os  # type: ignore[method-assign]
        try:
            with pytest.raises(SummaryError, match="unknown algorithm"):
                cache.run(
                    "author",
                    1,
                    QueryOptions(l=5, algorithm="magic", source=Source.COMPLETE),
                )
            assert generated == []
        finally:
            del dblp_engine.complete_os

    def test_session_validates_before_generating(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        with pytest.raises(SummaryError, match="unknown backend"):
            session.size_l("author", 1, options=QueryOptions(backend="tape"))


class TestUniformLValidation:
    """`l >= 1` raises the same InvalidSizeError message everywhere."""

    MESSAGE = "positive integer"

    def test_engine_size_l(self, dblp_engine) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            dblp_engine.size_l("author", 0, l=0)

    def test_engine_prelim_os(self, dblp_engine) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            dblp_engine.prelim_os("author", 0, l=0)

    def test_engine_keyword_query(self, dblp_engine) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            dblp_engine.keyword_query("Faloutsos", l=-2)

    def test_session_size_l(self, session: Session) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            session.size_l("author", 0, l=0)

    def test_session_iter_keyword_query(self, session: Session) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            session.iter_keyword_query("Faloutsos", l=0)

    def test_cache_size_l(self, dblp_engine) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            SummaryCache(dblp_engine).run(
                "author", 0, QueryOptions(l=0, source=Source.COMPLETE)
            )

    def test_cli_query(self, capsys) -> None:
        from repro.cli import main

        code = main(["query", "--keywords", "x", "--l", "0"])
        assert code == 2
        assert "positive integer" in capsys.readouterr().err


class TestCacheBounds:
    def test_prelim_results_bounded_by_max_subjects(self, dblp_engine) -> None:
        # prelim-path results never cache a complete tree; the unified
        # subject book must still bound them (they used to accumulate
        # forever in a separate, unbounded memo store)
        session = Session(dblp_engine, cache_size=2)
        for row_id in range(5):
            session.size_l("author", row_id, l=3)  # default source=prelim
        assert session.cache.cached_subjects <= 2
        assert session.cache.cached_results <= 2

    def test_depth_limit_honoured_for_prelim_source(self, dblp_engine) -> None:
        limited = dblp_engine.size_l(
            "author",
            0,
            options=QueryOptions(l=3, source=Source.PRELIM, depth_limit=0),
        )
        free = dblp_engine.size_l(
            "author", 0, options=QueryOptions(l=3, source=Source.PRELIM)
        )
        assert limited.stats.initial_os_size < free.stats.initial_os_size


class TestDeprecationShims:
    def test_non_queryoptions_options_rejected_clearly(self, dblp_engine) -> None:
        with pytest.raises(SummaryError, match="must be a QueryOptions"):
            dblp_engine.size_l("author", 0, options=42)  # type: ignore[arg-type]
        # the pre-QueryOptions positional algorithm: size_l(table, row, l, "dp")
        with pytest.raises(SummaryError, match="must be a QueryOptions"):
            dblp_engine.size_l("author", 0, 6, "dp")  # type: ignore[arg-type]

    def test_options_and_legacy_kwargs_conflict(self, session: Session) -> None:
        # no query method takes the pre-QueryOptions algorithm=/source=/
        # backend= kwargs, with or without options=
        engine = session.engine
        methods = (
            engine.size_l, engine.keyword_query, engine.iter_keyword_query,
            session.size_l, session.size_l_many, session.keyword_query,
            session.iter_keyword_query,
        )
        for method in methods:
            params = inspect.signature(method).parameters
            assert not {"algorithm", "source", "backend"} & set(params), method
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.size_l(
                "author", 0, options=QueryOptions(), algorithm="dp"
            )  # type: ignore[call-arg]
