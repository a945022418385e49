"""Tests for the concurrent serving layer.

Covers the thread-safety guarantees of :class:`SummaryCache` (single
lock-protected subject book, single-flight generation, atomic eviction
under racing threads) and the :class:`Session` fan-out
(``iter_keyword_query(workers=N)``, ``size_l_many(workers=N)``,
``ParallelConfig`` resolution, the CLI ``--workers`` flag).

The hammer tests use a barrier plus an artificially slowed generation
step so every thread is genuinely in flight at once — without the delay a
fast generation can finish before the second thread even asks, and the
single-flight path would never be exercised.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cache import SummaryCache
from repro.core.options import ParallelConfig, QueryOptions, Source
from repro.errors import SummaryError
from repro.session import Session


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
                dblp_engine.run("author", row, options.normalized()).selected_uids
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


class TestParallelKeywordQuery:
    def test_workers_yield_same_results_as_serial(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        serial = session.keyword_query("Faloutsos", l=7)
        parallel = session.keyword_query("Faloutsos", l=7, workers=4)
        assert [e.match.row_id for e in parallel] == [e.match.row_id for e in serial]
        assert [e.result.selected_uids for e in parallel] == [
            e.result.selected_uids for e in serial
        ]

    def test_unordered_yields_same_result_set(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        serial = session.keyword_query("Faloutsos", l=7)
        unordered = session.keyword_query(
            "Faloutsos", l=7, workers=4, ordered=False
        )
        assert {e.match.row_id for e in unordered} == {
            e.match.row_id for e in serial
        }
        by_row = {e.match.row_id: e.result.selected_uids for e in serial}
        for entry in unordered:
            assert entry.result.selected_uids == by_row[entry.match.row_id]

    def test_parallel_stream_is_a_lazy_iterator(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        stream = session.iter_keyword_query("Faloutsos", l=5, workers=4)
        first = next(stream)
        assert first.result.size == 5
        stream.close()  # abandoning the stream must not hang the pool

    def test_parallel_options_validated_eagerly(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        with pytest.raises(SummaryError, match="unknown algorithm"):
            session.iter_keyword_query(
                "Faloutsos", options=QueryOptions(algorithm="magic"), workers=4
            )
        with pytest.raises(SummaryError, match="workers must be"):
            session.iter_keyword_query("Faloutsos", workers=0)

    def test_size_l_many_parallel_preserves_input_order(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        subjects = [("author", 2), ("author", 0), ("author", 1), ("author", 0)]
        serial = session.size_l_many(subjects, l=5)
        parallel = Session(dblp_engine).size_l_many(subjects, l=5, workers=4)
        assert [r.selected_uids for r in parallel] == [
            r.selected_uids for r in serial
        ]

    def test_session_pool_is_reused_across_queries(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        session.keyword_query("Faloutsos", l=5, workers=4)
        pool = session._pool
        assert pool is not None
        session.keyword_query("Faloutsos", l=6, workers=2)
        assert session._pool is pool  # no per-query spawn/teardown
        session.keyword_query("Faloutsos", l=7, workers=8)
        assert session._pool is not pool  # grown for the larger fan-out

    def test_concurrent_queries_survive_pool_growth(self, dblp_engine) -> None:
        """One client growing the pool must not break another client's
        in-flight submissions (the swap retires the old executor)."""
        session = Session(dblp_engine)
        barrier = threading.Barrier(6)

        def client(workers: int) -> int:
            barrier.wait()
            return len(session.keyword_query("Faloutsos", l=5, workers=workers))

        with ThreadPoolExecutor(max_workers=6) as pool:
            counts = [
                f.result()
                for f in [
                    pool.submit(client, workers)
                    for workers in (2, 8, 3, 6, 2, 8)
                ]
            ]
        assert counts == [3] * 6

    def test_workers_still_throttle_after_pool_growth(
        self, dblp_engine, monkeypatch
    ) -> None:
        """workers= is a per-call concurrency contract: a workers=2 call
        must not run 8-wide just because an earlier call grew the pool."""
        session = Session(dblp_engine)
        session.keyword_query("Faloutsos", l=5, workers=8)  # grow the pool
        active = 0
        peak = 0
        gauge = threading.Lock()
        original = session.cache.run

        def tracking(rds_table, row_id, opts):
            nonlocal active, peak
            with gauge:
                active += 1
                peak = max(peak, active)
            try:
                time.sleep(0.003)
                return original(rds_table, row_id, opts)
            finally:
                with gauge:
                    active -= 1

        monkeypatch.setattr(session.cache, "run", tracking)
        session.size_l_many([("author", i) for i in range(8)], l=4, workers=2)
        assert peak <= 2
        peak = 0
        list(session.iter_keyword_query("Faloutsos", l=6, workers=2))
        assert peak <= 2

    def test_window_refills_behind_a_slow_head(
        self, dblp_engine, monkeypatch
    ) -> None:
        """The window refills on ANY completion: one slow head-of-line
        subject must not reduce the call to serial execution."""
        session = Session(dblp_engine)
        original = session.cache.run
        start_times: dict[int, float] = {}
        slow_done_at = [float("inf")]
        record = threading.Lock()

        def tracking(rds_table, row_id, opts):
            with record:
                start_times[row_id] = time.perf_counter()
            result = original(rds_table, row_id, opts)
            if row_id == 0:
                time.sleep(0.05)
                slow_done_at[0] = time.perf_counter()
            return result

        monkeypatch.setattr(session.cache, "run", tracking)
        subjects = [("author", row) for row in range(6)]  # 0 is the slow head
        results = session.size_l_many(subjects, l=4, workers=2)
        assert len(results) == 6
        # every later subject started while the slow head was still running
        assert all(
            start_times[row] < slow_done_at[0] for row in range(1, 6)
        ), (start_times, slow_done_at)

    def test_session_close_is_idempotent_and_recoverable(self, dblp_engine) -> None:
        with Session(dblp_engine) as session:
            assert session.keyword_query("Faloutsos", l=5, workers=4)
        assert session._pool is None
        session.close()  # idempotent
        # a closed Session grows a fresh pool on the next parallel call
        assert len(session.keyword_query("Faloutsos", l=6, workers=4)) == 3

    def test_parallel_config_resolution_order(self, dblp_engine) -> None:
        session = Session(dblp_engine, parallel=ParallelConfig(workers=2))
        assert session.parallel.workers == 2
        opts = QueryOptions(parallel=ParallelConfig(workers=3, ordered=False))
        resolved = session._parallel_config(opts.normalized(), None, None)
        assert resolved.workers == 3 and resolved.ordered is False
        resolved = session._parallel_config(opts.normalized(), 5, True)
        assert resolved.workers == 5 and resolved.ordered is True
        assert session.describe()["parallel"] == {"workers": 2, "ordered": True}


class TestParallelConfigValidation:
    def test_bad_workers(self) -> None:
        for bad in (0, -1, 1.5, True, "four"):
            with pytest.raises(SummaryError, match="workers must be"):
                ParallelConfig(workers=bad).normalized()  # type: ignore[arg-type]

    def test_bad_ordered(self) -> None:
        with pytest.raises(SummaryError, match="ordered must be"):
            ParallelConfig(ordered=1).normalized()  # type: ignore[arg-type]

    def test_bad_parallel_on_options(self) -> None:
        with pytest.raises(SummaryError, match="parallel must be"):
            QueryOptions(parallel="four").normalized()  # type: ignore[arg-type]

    def test_default_is_serial_ordered(self) -> None:
        config = ParallelConfig().normalized()
        assert config.workers == 1 and config.ordered is True


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

    def test_snapshot_false_caller_never_joins_a_disk_load_flight(
        self, dblp_engine, dblp_snapshot, monkeypatch
    ) -> None:
        """QueryOptions(snapshot=False) promises a fresh generation on a
        miss; a concurrent default-options leader mid-disk-load must not
        hand its snapshot tree to the opted-out caller (the disk flag is
        part of the single-flight key)."""
        generations = _slow(monkeypatch, dblp_engine, "complete_os_flat")
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        in_disk_load = threading.Event()
        release_disk_load = threading.Event()
        original = dblp_snapshot.load_flat

        def gated(rds_table, row_id, *args, **kwargs):
            in_disk_load.set()
            release_disk_load.wait(timeout=5)
            return original(rds_table, row_id, *args, **kwargs)

        monkeypatch.setattr(dblp_snapshot, "load_flat", gated)
        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(cache.complete_os_flat, "author", 5)
            assert in_disk_load.wait(timeout=5)
            # the leader is inside its disk load right now
            opted_out = pool.submit(
                lambda: cache.complete_os_flat("author", 5, snapshot=False)
            )
            fresh = opted_out.result(timeout=5)  # must not block on the leader
            release_disk_load.set()
            disk_tree = leader.result(timeout=5)
        assert len(generations) == 1  # the opted-out caller generated
        assert fresh is not disk_tree
        stats = cache.stats()
        assert stats.disk_hits == 1 and stats.tree_generations == 1

    def test_snapshot_false_run_never_joins_a_disk_derived_result_flight(
        self, dblp_engine, dblp_snapshot, monkeypatch
    ) -> None:
        """The result-level single-flight must split on the snapshot flag
        too: a run(snapshot=False) arriving while a default-options leader
        computes from the disk tree must run its own live pipeline."""
        generations = _slow(monkeypatch, dblp_engine, "complete_os_flat")
        cache = SummaryCache(dblp_engine, snapshot=dblp_snapshot)
        in_disk_load = threading.Event()
        release = threading.Event()
        original = dblp_snapshot.load_flat

        def gated(rds_table, row_id, *args, **kwargs):
            in_disk_load.set()
            release.wait(timeout=5)
            return original(rds_table, row_id, *args, **kwargs)

        monkeypatch.setattr(dblp_snapshot, "load_flat", gated)
        options = QueryOptions(l=6, source=Source.COMPLETE).normalized()
        opted_out = options.replace(snapshot=False).normalized()
        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(cache.run, "author", 6, options)
            assert in_disk_load.wait(timeout=5)
            fresh = pool.submit(cache.run, "author", 6, opted_out).result(timeout=5)
            release.set()
            from_disk = leader.result(timeout=5)
        assert len(generations) == 1  # the opted-out run regenerated
        assert fresh.selected_uids == from_disk.selected_uids  # same answer
        stats = cache.stats()
        assert stats.result_computations == 2  # two independent pipelines
        assert stats.tree_generations == 1 and stats.disk_hits == 1

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


class TestCLIWorkers:
    def test_query_with_workers_flag(self, capsys) -> None:
        from repro.cli import main

        code = main(
            [
                "query",
                "--keywords",
                "Faloutsos",
                "--l",
                "5",
                "--workers",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("--- result") == 3

    def test_query_unordered_same_result_set(self, capsys) -> None:
        from repro.cli import main

        assert main(["query", "--keywords", "Faloutsos", "--l", "5"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "query",
                    "--keywords",
                    "Faloutsos",
                    "--l",
                    "5",
                    "--workers",
                    "4",
                    "--unordered",
                ]
            )
            == 0
        )
        unordered = capsys.readouterr().out
        assert unordered.count("--- result") == serial.count("--- result")

    def test_bad_workers_value_is_a_usage_error(self, capsys) -> None:
        from repro.cli import main

        code = main(["query", "--keywords", "x", "--workers", "0"])
        assert code == 2
        assert "workers must be" in capsys.readouterr().err


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


class TestCloseLifecycle:
    """Session.close(): idempotent, and in-flight fan-outs drain."""

    def test_double_close_is_noop(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        session.size_l_many([("author", 0), ("author", 1)], 5, workers=2)
        session.close()
        assert session._pool is None
        session.close()  # second close: no pool, no error
        assert session._pool is None

    def test_close_without_ever_using_the_pool(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        session.close()
        session.close()

    def test_close_while_fanout_in_flight_drains(
        self, dblp_engine, monkeypatch
    ) -> None:
        """A barrier holds two generations mid-flight while another thread
        closes the Session: every result must still arrive (no
        'cannot schedule new futures after shutdown'), and the second
        close must be a no-op."""
        in_flight = threading.Barrier(3, timeout=10)  # 2 workers + closer
        original = dblp_engine.complete_os_flat
        call_count = itertools.count()

        def gated(rds_table, row_id, *args, **kwargs):
            # exactly the first two generations hold the barrier (counter,
            # not a flag: a worker looping around before the closer flips
            # a flag would re-enter the auto-resetting barrier and strand)
            if next(call_count) < 2:
                in_flight.wait()
            return original(rds_table, row_id, *args, **kwargs)

        monkeypatch.setattr(dblp_engine, "complete_os_flat", gated)
        session = Session(dblp_engine)
        subjects = [("author", row) for row in range(6)]
        options = QueryOptions(l=5, source=Source.COMPLETE)
        results: list = []
        errors: list[BaseException] = []

        def consume() -> None:
            try:
                results.extend(
                    session.size_l_many(subjects, options=options, workers=2)
                )
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        consumer = threading.Thread(target=consume)
        consumer.start()
        in_flight.wait()  # two generations are genuinely in flight now
        session.close()  # drains; must not break the running fan-out
        session.close()  # idempotent mid-stream too
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert errors == []
        assert len(results) == len(subjects)
        expected = [
            dblp_engine.run(table, row, options.normalized())
            for table, row in subjects
        ]
        assert [r.selected_uids for r in results] == [
            e.selected_uids for e in expected
        ]

    def test_fanout_after_close_grows_a_fresh_pool(self, dblp_engine) -> None:
        session = Session(dblp_engine)
        session.size_l_many([("author", 0)], 5, workers=2)
        session.close()
        results = session.size_l_many(
            [("author", 1), ("author", 2)], 5, workers=2
        )
        assert len(results) == 2
        session.close()

    def test_submit_degrades_inline_when_executor_refuses(
        self, dblp_engine, monkeypatch
    ) -> None:
        """The drain guarantee's last line: if the executor itself refuses
        the task (shutdown flag set underneath us), the call runs inline
        instead of raising through the stream."""
        session = Session(dblp_engine)
        session.size_l_many([("author", 0)], 5, workers=2)  # grow the pool

        class Refusing:
            def submit(self, fn, *args):
                raise RuntimeError("cannot schedule new futures after shutdown")

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(session, "_pool", Refusing())
        monkeypatch.setattr(session, "_pool_workers", 8)
        results = session.size_l_many(
            [("author", 1), ("author", 2)], 5, workers=2
        )
        assert [r.size for r in results] == [5, 5]
