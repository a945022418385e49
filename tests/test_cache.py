"""Tests for the summary cache (Section 7 pre-computation direction).

Includes the regression tests for the cache-correctness sweep:

* hits return per-call results — the memoised object (and the first
  caller's miss-result) keeps ``cached=False``;
* ``invalidate(row_id=...)`` without a table raises instead of silently
  clearing everything;
* subject eviction is atomic — a subject's memos and trees leave together
  (the old three-``OrderedDict`` layout let the books drift apart);
* ``cached_subjects`` counts memo-only subjects too, with
  ``cached_results`` exposed separately.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.cache import SummaryCache
from repro.core.options import QueryOptions, Source
from repro.errors import SummaryError


def complete(l: int, **changes) -> QueryOptions:  # noqa: E741 - paper notation
    """Options for a size-l summary of the (cacheable) complete OS."""
    return QueryOptions(l=l, source=Source.COMPLETE, **changes)


class TestCompleteOSCache:
    def test_second_fetch_is_a_hit_and_same_object(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        first = cache.complete_os_flat("author", 1)
        second = cache.complete_os_flat("author", 1)
        assert first is second
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.cached_subjects == 1
        assert stats.tree_generations == 1

    def test_lru_eviction(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine, max_subjects=2)
        a = cache.complete_os_flat("author", 1)
        cache.complete_os_flat("author", 2)
        cache.complete_os_flat("author", 3)  # evicts subject 1
        assert cache.cached_subjects == 2
        assert cache.stats().evictions == 1
        again = cache.complete_os_flat("author", 1)
        assert again is not a  # regenerated after eviction

    def test_touch_refreshes_lru_order(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine, max_subjects=2)
        a = cache.complete_os_flat("author", 1)
        cache.complete_os_flat("author", 2)
        cache.complete_os_flat("author", 1)  # touch 1: now 2 is the LRU entry
        cache.complete_os_flat("author", 3)  # evicts 2, keeps 1
        assert cache.complete_os_flat("author", 1) is a

    def test_bad_capacity(self, dblp_engine) -> None:
        with pytest.raises(ValueError):
            SummaryCache(dblp_engine, max_subjects=0)


class TestSizeLMemo:
    def test_memoised_result_equivalent_not_shared(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        first = cache.run("author", 1, complete(10))
        second = cache.run("author", 1, complete(10))
        # hits are per-call copies: same payload, fresh stats record
        assert second is not first
        assert second.summary is first.summary
        assert second.selected_uids == first.selected_uids
        assert second.importance == first.importance
        assert cache.stats().result_computations == 1

    def test_hit_does_not_mutate_the_miss_result(self, dblp_engine) -> None:
        # The old cache set ``cached = True`` on the *shared* memo object,
        # retroactively flipping the first caller's miss-result.
        cache = SummaryCache(dblp_engine)
        first = cache.run("author", 1, complete(10))
        assert first.stats.cached is False
        second = cache.run("author", 1, complete(10))
        assert second.stats.cached is True
        assert first.stats.cached is False  # the original must not flip
        third = cache.run("author", 1, complete(10))
        assert third.stats.cached is True
        assert third is not second

    def test_results_match_engine(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cached = cache.run("author", 1, complete(10, algorithm="dp"))
        direct = dblp_engine.run("author", 1, complete(10, algorithm="dp"))
        assert cached.selected_uids == direct.selected_uids
        assert cached.importance == pytest.approx(direct.importance)
        # the cached-tree path stamps the same record as engine.run, bar
        # the timings and the cached flag
        untimed = dict(generation_seconds=0.0, algorithm_seconds=0.0, cached=False)
        assert dataclasses.replace(cached.stats, **untimed) == dataclasses.replace(
            direct.stats, **untimed
        )

    def test_distinct_l_and_algorithms_cached_separately(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        a = cache.run("author", 1, complete(5))
        b = cache.run("author", 1, complete(10))
        c = cache.run("author", 1, complete(5, algorithm="bottom_up"))
        assert a is not b and a is not c
        assert cache.cached_results == 3

    def test_unknown_algorithm(self, dblp_engine, orphaned_options) -> None:
        cache = SummaryCache(dblp_engine)
        with pytest.raises(SummaryError, match="unknown algorithm 'orphan'"):
            cache.run("author", 1, orphaned_options)
        assert cache.cached_results == 0

    def test_eviction_drops_memoised_results(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine, max_subjects=1)
        first = cache.run("author", 1, complete(5))
        cache.run("author", 2, complete(5))  # evicts subject 1 with its results
        again = cache.run("author", 1, complete(5))
        assert again is not first
        assert again.stats.cached is False  # recomputed, not served


class TestAtomicEviction:
    """The unified subject-level LRU: memos and trees live and die together.

    The old layout kept ``_results`` in its own ``OrderedDict`` whose LRU
    order could drift from the tree stores (``_cached_tree`` inserted via
    ``setdefault`` without ``move_to_end``), so eviction could drop a
    freshly-touched subject's memos while its tree survived.
    """

    def test_memo_survives_while_tree_keeps_subject_fresh(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine, max_subjects=2)
        cache.run("author", 1, complete(5))  # subject 1: tree + memo
        cache.run("author", 2, complete(5))  # subject 2: tree + memo
        cache.complete_os_flat("author", 1)  # touch subject 1 via its *tree*
        cache.run("author", 3, complete(5))  # evicts subject 2, not 1
        # subject 1's memo must still be served from cache
        again = cache.run("author", 1, complete(5))
        assert again.stats.cached is True
        assert cache.stats().result_computations == 3  # subjects 1, 2, 3

    def test_no_subject_outlives_eviction_partially(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine, max_subjects=1)
        cache.run("author", 1, complete(5))
        cache.complete_os_flat("author", 1)
        cache.run("author", 2, complete(5))  # evicts subject 1 entirely
        assert cache.cached_subjects == 1
        assert cache.cached_results == 1  # only subject 2's memo
        # regenerating subject 1 misses on both the tree and the memo
        before = cache.stats()
        cache.run("author", 1, complete(5))
        after = cache.stats()
        assert after.result_computations == before.result_computations + 1

    def test_book_never_exceeds_capacity(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine, max_subjects=3)
        for row_id in range(8):
            cache.run("author", row_id, complete(4))
            assert cache.cached_subjects <= 3


class TestInvalidation:
    def test_invalidate_all(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)
        cache.invalidate()
        assert cache.cached_subjects == 0

    def test_invalidate_one_subject(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)
        cache.complete_os_flat("author", 2)
        cache.invalidate("author", 1)
        assert cache.cached_subjects == 1

    def test_invalidate_table(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)
        cache.complete_os_flat("paper", 1)
        cache.invalidate("author")
        assert cache.cached_subjects == 1

    def test_invalidate_row_without_table_raises(self, dblp_engine) -> None:
        # This used to silently clear the ENTIRE cache, ignoring row_id.
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)
        with pytest.raises(ValueError, match="requires rds_table"):
            cache.invalidate(row_id=5)
        assert cache.cached_subjects == 1  # nothing was dropped


class TestCountingBugfix:
    """``cached_subjects`` counts the unified book — including subjects
    that hold only memoised prelim/database-path results (the old count
    looked only at the tree stores and reported 0 for them)."""

    def test_memo_only_subject_is_counted(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        # prelim-source results never cache a complete tree
        cache.run("author", 1, QueryOptions(l=5, source=Source.PRELIM))
        assert cache.cached_subjects == 1
        assert cache.cached_results == 1
        assert cache.stats().cached_subjects == 1

    def test_cached_results_tracks_memos_not_trees(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)  # tree only, no memo
        assert cache.cached_subjects == 1
        assert cache.cached_results == 0
        cache.run("author", 1, complete(5))
        cache.run("author", 1, complete(7))
        assert cache.cached_results == 2


class TestCacheStatsMerge:
    """``CacheStats.merge``: the cluster's per-worker counter aggregation."""

    def test_merge_sums_every_counter(self) -> None:
        from repro.core.cache import CacheStats

        a = CacheStats(hits=3, misses=1, cached_subjects=2, tree_generations=1)
        b = CacheStats(hits=4, misses=2, evictions=5, disk_hits=7)
        merged = CacheStats.merge(a, b)
        assert merged.hits == 7
        assert merged.misses == 3
        assert merged.cached_subjects == 2
        assert merged.tree_generations == 1
        assert merged.evictions == 5
        assert merged.disk_hits == 7
        # derived properties compose like the raw counters do
        assert merged.requests == a.requests + b.requests

    def test_merge_accepts_wire_dicts(self) -> None:
        """Workers report counters as JSON dicts; merge takes them as-is
        (missing keys mean zero — a newer router may merge older workers)."""
        from repro.core.cache import CacheStats

        merged = CacheStats.merge(
            {"hits": 2, "misses": 1},
            CacheStats(hits=1),
            {},
        )
        assert merged.hits == 3
        assert merged.misses == 1
        assert merged.evictions == 0

    def test_merge_of_nothing_is_all_zeros(self) -> None:
        from repro.core.cache import CacheStats

        assert CacheStats.merge() == CacheStats()
        assert CacheStats.merge().requests == 0

    def test_merge_rejects_non_integer_counters(self) -> None:
        from repro.core.cache import CacheStats

        with pytest.raises(TypeError, match="non-integer counter"):
            CacheStats.merge({"hits": "3"})
        with pytest.raises(TypeError, match="non-integer counter"):
            CacheStats.merge({"hits": True})

    def test_merge_round_trips_as_dict(self) -> None:
        from repro.core.cache import CacheStats

        a = CacheStats(hits=5, single_flight_waits=2, snapshot_stale=1)
        b = CacheStats(misses=3, lock_contention=4)
        assert CacheStats.merge(a.as_dict(), b.as_dict()) == CacheStats.merge(a, b)
