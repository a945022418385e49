"""Tests for the Session facade: integrated caching, streaming
iter_keyword_query laziness, batched size_l_many, and the uniform
``l >= 1`` validation across every entry point."""

from __future__ import annotations

import inspect

import pytest

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

    def test_size_l_many_keeps_input_order(self, session: Session) -> None:
        subjects = [("author", 2), ("author", 0), ("author", 1), ("author", 0)]
        results = session.size_l_many(subjects, l=5)
        assert [r.summary.root.row_id for r in results] == [2, 0, 1, 0]
        assert [r.importance for r in results] == [
            session.size_l(table, row_id, l=5).importance
            for table, row_id in subjects
        ]

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
        searched: list[object] = []
        computed: list[tuple[str, int]] = []
        original_search = dblp_engine.search_matches
        original_run = session.cache.run

        def counting_search(keywords, options):
            searched.append(keywords)
            return original_search(keywords, options)

        def counting_run(rds_table, row_id, options):
            computed.append((rds_table, row_id))
            return original_run(rds_table, row_id, options)

        dblp_engine.search_matches = counting_search  # type: ignore[method-assign]
        session.cache.run = counting_run  # type: ignore[method-assign]
        try:
            stream = session.iter_keyword_query("Faloutsos", l=5)
            # nothing runs until consumed, not even the keyword search
            assert searched == [] and computed == []
            first = next(stream)
            assert first.result.size == 5
            assert len(searched) == 1
            assert len(computed) == 1  # later OSs not yet generated
            rest = list(stream)
            assert len(computed) == 1 + len(rest)
        finally:
            del dblp_engine.search_matches

    def test_options_validated_eagerly(self, session: Session) -> None:
        # a bad per-call knob surfaces at call time, not on first next()
        with pytest.raises(SummaryError, match="max_results"):
            session.iter_keyword_query("Faloutsos", max_results=0)

    def test_batch_equals_stream(self, session: Session) -> None:
        batch = session.keyword_query("Faloutsos", l=7)
        stream = list(session.iter_keyword_query("Faloutsos", l=7))
        assert [b.match.row_id for b in batch] == [s.match.row_id for s in stream]


class TestValidationBeforeGeneration:
    """A bad knob must never cost an OS generation: a QueryOptions checks
    itself when built, and a Session checks its per-call knobs before the
    cache runs."""

    def test_session_validates_before_generating(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        calls: list[tuple[str, int]] = []
        session.cache.run = lambda t, r, o: calls.append((t, r))  # type: ignore[method-assign]
        with pytest.raises(InvalidSizeError, match="positive integer"):
            session.size_l("author", 1, l=0)
        assert calls == []


class TestUniformLValidation:
    """`l >= 1` raises the same InvalidSizeError message everywhere."""

    MESSAGE = "positive integer"

    def test_engine_prelim_os(self, dblp_engine) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            dblp_engine.prelim_os("author", 0, l=0)

    def test_session_size_l(self, session: Session) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            session.size_l("author", 0, l=0)

    def test_session_iter_keyword_query(self, session: Session) -> None:
        with pytest.raises(InvalidSizeError, match=self.MESSAGE):
            session.iter_keyword_query("Faloutsos", l=0)

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
        limited = dblp_engine.run(
            "author", 0, QueryOptions(l=3, source=Source.PRELIM, depth_limit=0)
        )
        free = dblp_engine.run("author", 0, QueryOptions(l=3, source=Source.PRELIM))
        assert limited.stats.initial_os_size < free.stats.initial_os_size


class TestDeprecationShims:
    def test_non_queryoptions_options_rejected_clearly(self, session: Session) -> None:
        with pytest.raises(SummaryError, match="must be a QueryOptions"):
            session.size_l("author", 0, options=42)  # type: ignore[arg-type]
        # the pre-QueryOptions positional algorithm: size_l(table, row, l, "dp")
        with pytest.raises(SummaryError, match="must be a QueryOptions"):
            session.size_l("author", 0, 6, "dp")  # type: ignore[arg-type]

    def test_options_and_legacy_kwargs_conflict(self, session: Session) -> None:
        # no query method takes the pre-QueryOptions algorithm=/source=/
        # backend= kwargs, with or without options=
        methods = (
            session.size_l, session.size_l_many, session.keyword_query,
            session.iter_keyword_query,
        )
        for method in methods:
            params = inspect.signature(method).parameters
            assert not {"algorithm", "source", "backend"} & set(params), method
        with pytest.raises(TypeError, match="unexpected keyword"):
            session.size_l(
                "author", 0, options=QueryOptions(), algorithm="dp"
            )  # type: ignore[call-arg]
