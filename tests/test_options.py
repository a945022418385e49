"""Tests for the typed options layer: QueryOptions validation at
construction, resolve_options, and the ResultStats record."""

from __future__ import annotations

import pytest

from repro.core.options import (
    Algorithm,
    Backend,
    QueryOptions,
    ResultStats,
    Source,
    resolve_options,
)
from repro.errors import InvalidSizeError, SummaryError


class TestQueryOptionsValidation:
    def test_defaults_follow_the_paper_pipeline(self) -> None:
        opts = QueryOptions()
        assert opts.l == 10
        assert opts.algorithm is Algorithm.TOP_PATH
        assert opts.source is Source.PRELIM
        assert opts.backend is Backend.DATAGRAPH

    def test_strings_coerce_to_enums(self) -> None:
        opts = QueryOptions(algorithm="dp", source="complete", backend="database")
        assert opts.algorithm is Algorithm.DP
        assert opts.source is Source.COMPLETE
        assert opts.backend is Backend.DATABASE

    @pytest.mark.parametrize("bad_l", [0, -3, 2.5, True, "10", None])
    def test_bad_l_uniform_message(self, bad_l: object) -> None:
        with pytest.raises(InvalidSizeError, match="positive integer"):
            QueryOptions(l=bad_l)  # type: ignore[arg-type]

    def test_unknown_algorithm_lists_choices(self) -> None:
        with pytest.raises(SummaryError, match="unknown algorithm 'magic'"):
            QueryOptions(algorithm="magic")

    def test_unknown_source(self) -> None:
        with pytest.raises(SummaryError, match="unknown source"):
            QueryOptions(source="partial")

    def test_unknown_backend(self) -> None:
        with pytest.raises(SummaryError, match="unknown backend"):
            QueryOptions(backend="ramdisk")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_bad_max_results(self, bad: object) -> None:
        with pytest.raises(SummaryError, match="max_results"):
            QueryOptions(max_results=bad)  # type: ignore[arg-type]

    @pytest.mark.parametrize("bad", [-1, 2.5, True])
    def test_bad_depth_limit(self, bad: object) -> None:
        with pytest.raises(SummaryError, match="depth_limit"):
            QueryOptions(depth_limit=bad)  # type: ignore[arg-type]

    def test_non_string_algorithm_rejected(self) -> None:
        with pytest.raises(SummaryError, match="algorithm"):
            QueryOptions(algorithm=42)  # type: ignore[arg-type]

    def test_invalid_options_cannot_be_constructed(self) -> None:
        # construction, replace() and wire decoding all validate, so every
        # QueryOptions that exists is valid
        with pytest.raises(InvalidSizeError, match="positive integer"):
            QueryOptions(l=0)
        with pytest.raises(SummaryError, match="unknown algorithm 'magic'"):
            QueryOptions(algorithm="magic")
        with pytest.raises(SummaryError, match="max_results"):
            QueryOptions().replace(max_results=0)

    def test_replace_canonicalises(self) -> None:
        opts = QueryOptions().replace(algorithm="dp", backend="database")
        assert opts.algorithm is Algorithm.DP
        assert opts.backend is Backend.DATABASE

    def test_frozen(self) -> None:
        with pytest.raises(Exception):
            QueryOptions().l = 5  # type: ignore[misc]

    def test_replace_returns_new_options(self) -> None:
        base = QueryOptions(l=5)
        bumped = base.replace(l=9)
        assert base.l == 5 and bumped.l == 9

    def test_canonical_names_and_cache_key(self) -> None:
        opts = QueryOptions(l=7, algorithm=Algorithm.DP, source=Source.COMPLETE)
        assert opts.algorithm_name == "dp"
        assert opts.source_name == "complete"
        assert opts.backend_name == "datagraph"
        assert opts.cache_key() == (7, "dp", "complete", "datagraph", None)


class TestResolveOptionsShim:
    DEFAULTS = QueryOptions()

    def test_options_plus_legacy_kwargs_rejected(self) -> None:
        for legacy in ({"algorithm": "dp"}, {"source": "complete"}, {"backend": "database"}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                resolve_options(QueryOptions(), defaults=self.DEFAULTS, **legacy)

    def test_l_and_max_results_accompany_options(self) -> None:
        opts = resolve_options(
            QueryOptions(algorithm=Algorithm.DP),
            defaults=self.DEFAULTS,
            l=3,
            max_results=2,
        )
        assert opts.l == 3 and opts.max_results == 2
        assert opts.algorithm is Algorithm.DP

    def test_defaults_pass_through(self) -> None:
        opts = resolve_options(None, defaults=self.DEFAULTS)
        assert opts is self.DEFAULTS


class TestResultStatsMapping:
    def test_from_counters(self) -> None:
        stats = ResultStats.from_counters({"a": 1}, source="prelim")
        assert stats.counters == {"a": 1}
        assert stats.source == "prelim"
