"""Tests for the concurrent serving layer.

Covers the thread-safety guarantees of :class:`SummaryCache` (single
lock-protected subject book, single-flight generation, atomic eviction
under racing threads, the snapshot disk tier under concurrency).

The hammer tests use a barrier plus an artificially slowed generation
step so every thread is genuinely in flight at once — without the delay a
fast generation can finish before the second thread even asks, and the
single-flight path would never be exercised.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cache import SummaryCache
from repro.core.options import QueryOptions, Source


def _slow(monkeypatch, engine, method: str, delay: float = 0.002):
    """Wrap an engine generation method with a short sleep + call counter."""
    original = getattr(engine, method)
    lock = threading.Lock()
    calls: list[tuple[str, int]] = []

    def wrapped(rds_table, row_id, *args, **kwargs):
        with lock:
            calls.append((rds_table, row_id))
        time.sleep(delay)
        return original(rds_table, row_id, *args, **kwargs)

    monkeypatch.setattr(engine, method, wrapped)
    return calls


class TestSingleFlight:
    def test_concurrent_same_subject_generates_once(
        self, dblp_engine, monkeypatch
    ) -> None:
        calls = _slow(monkeypatch, dblp_engine, "complete_os_flat")
        cache = SummaryCache(dblp_engine)
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def fetch():
            barrier.wait()
            return cache.complete_os_flat("author", 1)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            trees = [f.result() for f in [pool.submit(fetch) for _ in range(n_threads)]]

        assert len(calls) == 1  # one generation despite eight callers
        assert all(tree is trees[0] for tree in trees)
        stats = cache.stats()
        assert stats.tree_generations == 1
        assert stats.misses == 1
        assert stats.single_flight_waits + stats.hits == n_threads - 1

    def test_concurrent_run_coalesces_memo_computation(
        self, dblp_engine, monkeypatch
    ) -> None:
        calls = _slow(monkeypatch, dblp_engine, "run")
        cache = SummaryCache(dblp_engine)
        options = QueryOptions(l=6, source=Source.PRELIM)  # engine.run path
        n_threads = 6
        barrier = threading.Barrier(n_threads)

        def query():
            barrier.wait()
            return cache.run("author", 2, options)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = [
                f.result() for f in [pool.submit(query) for _ in range(n_threads)]
            ]

        assert len(calls) == 1
        assert cache.stats().result_computations == 1
        # exactly one caller got the miss-result; the rest got cached copies
        cached_flags = sorted(r.stats.cached for r in results)
        assert cached_flags == [False] + [True] * (n_threads - 1)
        assert len({frozenset(r.selected_uids) for r in results}) == 1

    def test_leader_failure_propagates_to_waiters(
        self, dblp_engine, monkeypatch
    ) -> None:
        barrier = threading.Barrier(3)

        def exploding(rds_table, row_id, *args, **kwargs):
            time.sleep(0.005)
            raise RuntimeError("backend down")

        monkeypatch.setattr(dblp_engine, "complete_os_flat", exploding)
        cache = SummaryCache(dblp_engine)

        def fetch():
            barrier.wait()
            cache.complete_os_flat("author", 1)

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(fetch) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="backend down"):
                    future.result()
        # the failed flight is cleared: a later call retries cleanly
        monkeypatch.undo()
        assert cache.complete_os_flat("author", 1).size > 0


class TestInvalidateInFlight:
    def test_post_invalidate_caller_gets_fresh_generation(
        self, dblp_engine, monkeypatch
    ) -> None:
        """invalidate() detaches in-flight computations: a caller arriving
        after the refresh must trigger a new generation, not inherit the
        stale one (which waiters that were already blocked still receive)."""
        calls = _slow(monkeypatch, dblp_engine, "complete_os_flat", delay=0.02)
        cache = SummaryCache(dblp_engine)
        started = threading.Event()

        original = dblp_engine.complete_os_flat

        def signalling(rds_table, row_id, *args, **kwargs):
            started.set()
            return original(rds_table, row_id, *args, **kwargs)

        monkeypatch.setattr(dblp_engine, "complete_os_flat", signalling)

        with ThreadPoolExecutor(max_workers=1) as pool:
            stale = pool.submit(cache.complete_os_flat, "author", 1)
            assert started.wait(timeout=5)
            cache.invalidate()  # the leader is mid-generation right now
            fresh = cache.complete_os_flat("author", 1)  # post-invalidate
            assert stale.result().size == fresh.size
        assert len(calls) == 2  # the stale flight was not reused
        assert cache.cached_subjects == 1

    def test_scoped_invalidate_keeps_unrelated_inflight_work(
        self, dblp_engine, monkeypatch
    ) -> None:
        """invalidate('author') must not discard a concurrent in-flight
        generation for a 'paper' subject — its result still gets cached."""
        _slow(monkeypatch, dblp_engine, "complete_os_flat", delay=0.02)
        cache = SummaryCache(dblp_engine)
        started = threading.Event()
        original = dblp_engine.complete_os_flat

        def signalling(rds_table, row_id, *args, **kwargs):
            started.set()
            return original(rds_table, row_id, *args, **kwargs)

        monkeypatch.setattr(dblp_engine, "complete_os_flat", signalling)
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(cache.complete_os_flat, "paper", 1)
            assert started.wait(timeout=5)
            cache.invalidate("author")  # scoped elsewhere, mid-generation
            tree = future.result()
        assert cache.complete_os_flat("paper", 1) is tree  # cached: a hit
        assert cache.stats().tree_generations == 1

    def test_detached_leader_does_not_evict_successor_flight(
        self, dblp_engine, monkeypatch
    ) -> None:
        # the stale leader finishing late must leave the fresh result cached
        _slow(monkeypatch, dblp_engine, "complete_os_flat", delay=0.01)
        cache = SummaryCache(dblp_engine)
        with ThreadPoolExecutor(max_workers=2) as pool:
            future = pool.submit(cache.complete_os_flat, "author", 2)
            time.sleep(0.002)  # let the leader enter its flight
            cache.invalidate("author", 2)
            tree = cache.complete_os_flat("author", 2)
            future.result()
        assert cache.complete_os_flat("author", 2) is tree  # still a hit


class TestHammer:
    def test_zipfian_hammer_no_duplicate_generations(
        self, dblp_engine, monkeypatch
    ) -> None:
        """N threads x M subjects under a zipfian mix: every subject is
        generated exactly once and all threads agree on the results."""
        calls = _slow(monkeypatch, dblp_engine, "complete_os_flat", delay=0.001)
        cache = SummaryCache(dblp_engine, max_subjects=64)
        options = QueryOptions(l=8, source=Source.COMPLETE)
        subjects = list(range(6))
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outcomes: dict[int, list[frozenset]] = {s: [] for s in subjects}
        collect = threading.Lock()

        def client(seed: int) -> None:
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(30):
                # zipf-ish: low ranks dominate, tail still visited
                row = subjects[min(int(rng.paretovariate(1.2)) - 1, len(subjects) - 1)]
                result = cache.run("author", row, options)
                with collect:
                    outcomes[row].append(frozenset(result.selected_uids))

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for future in [pool.submit(client, seed) for seed in range(n_threads)]:
                future.result()

        touched = {row for row, seen in outcomes.items() if seen}
        assert len(calls) == len(touched)  # single-flight: one generation each
        assert cache.stats().tree_generations == len(touched)
        assert cache.stats().result_computations == len(touched)
        for row in touched:
            assert len(set(outcomes[row])) == 1  # everyone saw the same OS

    def test_eviction_race_keeps_size_invariant(
        self, dblp_engine, monkeypatch
    ) -> None:
        """A capacity-2 cache hammered over 8 subjects: the book must never
        exceed capacity and every result must stay correct."""
        _slow(monkeypatch, dblp_engine, "complete_os_flat", delay=0.0005)
        cache = SummaryCache(dblp_engine, max_subjects=2)
        options = QueryOptions(l=5, source=Source.COMPLETE)
        reference = {
            row: frozenset(
                dblp_engine.run("author", row, options).selected_uids
            )
            for row in range(8)
        }
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        failures: list[str] = []

        def client(seed: int) -> None:
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(25):
                row = rng.randrange(8)
                result = cache.run("author", row, options)
                if frozenset(result.selected_uids) != reference[row]:
                    failures.append(f"subject {row} diverged")
                if cache.cached_subjects > 2:
                    failures.append("book exceeded max_subjects")

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for future in [pool.submit(client, seed) for seed in range(n_threads)]:
                future.result()

        assert failures == []
        assert cache.cached_subjects <= 2
        assert cache.cached_results <= 2 * 1  # one memo key per subject


class TestDiskTierConcurrency:
    """The snapshot (disk) tier under the same hammer patterns as memory.

    A memory-evicted subject must be re-served from the snapshot — once,
    no matter how many threads ask (single-flight covers the disk load) —
    and ``invalidate()`` must mask the disk entry so racing readers can
    never resurrect a stale tree.
    """

    def _counting_snapshot(self, monkeypatch, snapshot, delay: float = 0.002):
        """Wrap snapshot.load_flat with a call counter + slowdown."""
        original = snapshot.load_flat
        lock = threading.Lock()
        calls: list[tuple[str, int]] = []

        def wrapped(rds_table, row_id, *args, **kwargs):
            with lock:
                calls.append((rds_table, row_id))
            time.sleep(delay)
            return original(rds_table, row_id, *args, **kwargs)

        monkeypatch.setattr(snapshot, "load_flat", wrapped)
        return calls

    def test_concurrent_disk_loads_are_single_flight(
        self, dblp_engine, dblp_snapshot, monkeypatch
    ) -> None:
        loads = self._counting_snapshot(monkeypatch, dblp_snapshot)
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def fetch():
            barrier.wait()
            return cache.complete_os_flat("author", 1)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            trees = [f.result() for f in [pool.submit(fetch) for _ in range(n_threads)]]

        assert len(loads) == 1  # one disk load despite eight callers
        assert all(tree is trees[0] for tree in trees)
        stats = cache.stats()
        assert stats.disk_hits == 1
        assert stats.tree_generations == 0

    def test_evicted_subject_reserved_from_disk_not_regenerated(
        self, dblp_engine, dblp_snapshot, monkeypatch
    ) -> None:
        generations = _slow(monkeypatch, dblp_engine, "complete_os_flat")
        loads = self._counting_snapshot(monkeypatch, dblp_snapshot, delay=0.001)
        cache = SummaryCache(dblp_engine, max_subjects=1, snapshot=dblp_snapshot)
        options = QueryOptions(l=6, source=Source.COMPLETE)

        cache.run("author", 1, options)
        cache.run("author", 2, options)  # capacity 1: evicts subject 1
        assert cache.stats().evictions == 1

        n_threads = 6
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            return cache.run("author", 1, options)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = [
                f.result() for f in [pool.submit(hammer) for _ in range(n_threads)]
            ]

        assert generations == []  # every serve came off the snapshot
        assert loads.count(("author", 1)) == 2  # initial + post-eviction
        assert cache.stats().disk_hits == 3  # subjects 1, 2, 1-again
        assert len({frozenset(r.selected_uids) for r in results}) == 1

    def test_invalidate_masks_disk_entry_under_concurrency(
        self, dblp_engine, dblp_snapshot, monkeypatch
    ) -> None:
        generations = _slow(monkeypatch, dblp_engine, "complete_os_flat")
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        cache.complete_os_flat("author", 3)
        assert cache.stats().disk_hits == 1

        cache.invalidate("author", 3)
        n_threads = 6
        barrier = threading.Barrier(n_threads)

        def fetch():
            barrier.wait()
            return cache.complete_os_flat("author", 3)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            trees = [f.result() for f in [pool.submit(fetch) for _ in range(n_threads)]]

        # the masked entry was never re-served: exactly one real generation
        assert len(generations) == 1
        stats = cache.stats()
        assert stats.snapshot_stale == 1
        assert stats.disk_hits == 1  # unchanged from before the invalidate
        assert all(tree is trees[0] for tree in trees)
        # a scoped invalidate elsewhere leaves other disk entries servable
        cache.invalidate("paper")
        cache.complete_os_flat("author", 4)
        assert cache.stats().disk_hits == 2

    def test_zipfian_hammer_disk_tier_no_duplicate_loads(
        self, dblp_engine, dblp_snapshot, monkeypatch
    ) -> None:
        generations = _slow(monkeypatch, dblp_engine, "complete_os_flat")
        loads = self._counting_snapshot(monkeypatch, dblp_snapshot, delay=0.001)
        cache = SummaryCache(dblp_engine, max_subjects=64, snapshot=dblp_snapshot)
        options = QueryOptions(l=8, source=Source.COMPLETE)
        subjects = list(range(6))
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outcomes: dict[int, list[frozenset]] = {s: [] for s in subjects}
        collect = threading.Lock()

        def client(seed: int) -> None:
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(30):
                row = subjects[min(int(rng.paretovariate(1.2)) - 1, len(subjects) - 1)]
                result = cache.run("author", row, options)
                with collect:
                    outcomes[row].append(frozenset(result.selected_uids))

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for future in [pool.submit(client, seed) for seed in range(n_threads)]:
                future.result()

        touched = {row for row, seen in outcomes.items() if seen}
        assert generations == []  # the snapshot covered every subject
        assert len(loads) == len(touched)  # single-flight on the disk tier
        assert cache.stats().disk_hits == len(touched)
        for row in touched:
            assert len(set(outcomes[row])) == 1


class TestCacheStatsType:
    """The typed CacheStats record: attributes, as_dict, derived rates."""

    def test_stats_is_typed_and_frozen(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)
        stats = cache.stats()
        from repro.core.cache import CacheStats

        assert isinstance(stats, CacheStats)
        assert stats.misses == 1 and stats.tree_generations == 1
        with pytest.raises(AttributeError):
            stats.misses = 5  # frozen: a reading, not a live view

    def test_as_dict_matches_attributes(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)
        as_dict = cache.stats().as_dict()
        assert as_dict["misses"] == 1
        assert set(as_dict) == {
            "hits", "misses", "cached_subjects", "cached_results",
            "tree_generations", "result_computations", "single_flight_waits",
            "lock_contention", "evictions", "disk_hits", "disk_misses",
            "snapshot_stale", "pool_hits", "pool_misses", "pool_evictions",
        }
        assert all(isinstance(v, int) for v in as_dict.values())

    def test_derived_rates(self, dblp_engine) -> None:
        cache = SummaryCache(dblp_engine)
        cache.complete_os_flat("author", 1)
        cache.complete_os_flat("author", 1)
        stats = cache.stats()
        assert stats.requests == 2
        assert stats.hit_rate == pytest.approx(0.5)
