"""Session — the high-level facade of the public API.

A :class:`Session` owns a :class:`~repro.core.engine.SizeLEngine` and an
integrated :class:`~repro.core.cache.SummaryCache` (caching is a
first-class engine concern here, not an external wrapper) and exposes the
paper's end-to-end paradigm — keyword → t_DS matches → one size-l OS per
match — in three shapes:

* :meth:`keyword_query` — the batch list (Example 5);
* :meth:`iter_keyword_query` — a streaming generator that yields each
  :class:`~repro.core.engine.KeywordResult` as soon as its size-l OS is
  computed (the first result is available while later OSs are still being
  generated — the incremental delivery a production service needs);
* :meth:`size_l_many` — batched subjects under one set of options.

The Session is also the **serving layer**: pass ``workers=N`` (or a
:class:`~repro.core.options.ParallelConfig` default) and the per-subject
size-l pipelines fan out over a thread pool, all funnelled through the
thread-safe, single-flight :class:`~repro.core.cache.SummaryCache` so
concurrent queries for the same subject share one generation.

Quickstart::

    from repro import QueryOptions, Session
    from repro.datasets.dblp import small_dblp

    session = Session.from_dataset(small_dblp())
    for entry in session.iter_keyword_query("Faloutsos", options=QueryOptions(l=15)):
        print(entry.result.render())
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any, Iterable, Iterator

from repro.core.cache import CacheStats, SummaryCache
from repro.core.engine import KeywordResult, SizeLEngine
from repro.core.options import ParallelConfig, QueryOptions, resolve_options
from repro.core.os_tree import FlatOS, SizeLResult
from repro.core.prelim import PrelimStats
from repro.ranking.store import ImportanceStore
from repro.reliability.deadline import bind_deadline, current_deadline


class Session:
    """Engine + cache + default options, behind one façade.

    ``defaults`` seeds every query's :class:`QueryOptions` (the stock
    defaults follow the paper's end-to-end pipeline: Top-Path over a
    prelim-l OS); a per-call ``options`` replaces it, and per-call ``l=`` /
    ``max_results=`` override either.  ``parallel`` seeds
    the fan-out policy the same way: per-call ``workers=`` / ``ordered=``
    override ``options.parallel``, which overrides the Session default.
    """

    def __init__(
        self,
        engine: SizeLEngine,
        *,
        cache_size: int = 64,
        defaults: QueryOptions | None = None,
        parallel: ParallelConfig | None = None,
        snapshot: "Any | None" = None,
    ) -> None:
        self.engine = engine
        self.cache = SummaryCache(engine, max_subjects=cache_size)
        if snapshot is not None:
            # A precomputed repro.persist snapshot (or its directory
            # path): becomes the cache's disk tier.  Imported lazily —
            # persist depends on this module for its fan-out.
            from repro.persist.snapshot import Snapshot

            if not isinstance(snapshot, Snapshot):
                snapshot = Snapshot.open(snapshot)
            self.cache.attach_snapshot(snapshot)
        self.defaults = (
            defaults if defaults is not None else QueryOptions()
        ).normalized()
        self.parallel = (
            parallel if parallel is not None else ParallelConfig()
        ).normalized()
        # One executor per Session, created lazily and reused across
        # queries — a serving path must not pay N thread spawns + joins
        # per request.  Grown (never shrunk) when a call asks for more
        # workers than the current pool holds.
        self._pool: ThreadPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_lock = threading.Lock()
        # Live mutation state: created on first write / watch (lazily, so
        # read-only Sessions never build the delta overlays).
        self._live: "Any | None" = None
        self._live_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataset(
        cls,
        dataset: Any,
        *,
        store: ImportanceStore | None = None,
        theta: float = 0.7,
        cache_size: int = 64,
        defaults: QueryOptions | None = None,
        parallel: ParallelConfig | None = None,
        snapshot: "Any | None" = None,
    ) -> "Session":
        """Build from a dataset exposing ``db`` / ``default_gds()`` /
        ``default_store()`` (the synthetic DBLP and TPC-H datasets do).

        ``snapshot`` (a :mod:`repro.persist` snapshot or its path) warm-
        starts the whole stack: data graph, inverted index, importance
        store, and precomputed complete OSs come off disk."""
        from repro.core.builder import EngineBuilder

        builder = EngineBuilder.from_dataset(dataset, store=store, theta=theta)
        if snapshot is not None:
            builder.with_snapshot(snapshot)
        return builder.build_session(
            cache_size=cache_size, defaults=defaults, parallel=parallel
        )

    @classmethod
    def from_named(
        cls,
        name: str,
        *,
        seed: int = 7,
        scale: float = 1.0,
        cache_size: int = 64,
        defaults: QueryOptions | None = None,
        parallel: ParallelConfig | None = None,
        snapshot: "Any | None" = None,
    ) -> "Session":
        """Build over one of the on-the-fly demo databases ("dblp"/"tpch")."""
        from repro.core.builder import EngineBuilder

        builder = EngineBuilder.named(name, seed=seed, scale=scale)
        if snapshot is not None:
            builder.with_snapshot(snapshot)
        return builder.build_session(
            cache_size=cache_size, defaults=defaults, parallel=parallel
        )

    # ------------------------------------------------------------------ #
    # Size-l computation (cached)
    # ------------------------------------------------------------------ #
    def size_l(
        self,
        rds_table: str,
        row_id: int,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
    ) -> SizeLResult:
        """The cached generate+summarise pipeline for one Data Subject."""
        opts = resolve_options(options, defaults=self.defaults, l=l)
        return self.cache.run(rds_table, row_id, opts)

    def size_l_many(
        self,
        subjects: Iterable[tuple[str, int]],
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
        *,
        workers: int | None = None,
    ) -> list[SizeLResult]:
        """Batched :meth:`size_l` over ``(rds_table, row_id)`` subjects.

        With ``workers > 1`` the subjects fan out over a thread pool
        (duplicates coalesce on the cache's single-flight table); the
        returned list always follows the input order.
        """
        opts = resolve_options(options, defaults=self.defaults, l=l)
        subject_list = list(subjects)
        config = self._parallel_config(opts, workers, None)
        if config.workers == 1 or len(subject_list) <= 1:
            return [
                self.cache.run(rds_table, row_id, opts)
                for rds_table, row_id in subject_list
            ]
        calls = [
            (self.cache.run, rds_table, row_id, opts)
            for rds_table, row_id in subject_list
        ]
        results: list[SizeLResult | None] = [None] * len(calls)
        for index, result in self._windowed_results(config.workers, calls):
            results[index] = result
        return results  # type: ignore[return-value]  # every slot is filled

    # ------------------------------------------------------------------ #
    # Keyword queries
    # ------------------------------------------------------------------ #
    def _submit(self, workers: int, fn, *args: object) -> Future:
        """Submit one task to the shared pool, growing it to *workers*.

        Growing swaps in a bigger executor and retires the old one; every
        submission takes ``_pool_lock`` and reads ``self._pool`` under it,
        so no submission can ever target a just-retired pool (futures
        already submitted are unaffected — ``shutdown(wait=False)``
        drains them).

        A fan-out racing a :meth:`close` **drains instead of raising**: if
        the executor refuses the task (its shutdown flag was set between
        our lock release and the submit — possible at interpreter exit,
        where a fresh pool cannot be grown either), the call runs inline
        on this thread and the returned future carries its outcome, so a
        mid-stream ``iter_keyword_query`` consumer sees every result
        rather than a ``RuntimeError``.

        The submitting thread's request deadline (if any) is re-installed
        around the task: pool threads are long-lived and shared across
        requests, so the budget must travel with the work, not the thread.
        """
        fn = bind_deadline(fn, current_deadline())
        with self._pool_lock:
            if self._pool is None or self._pool_workers < workers:
                old = self._pool
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-serve"
                )
                self._pool_workers = workers
                if old is not None:
                    old.shutdown(wait=False)
            try:
                return self._pool.submit(fn, *args)
            except RuntimeError:
                pass  # executor shut down underneath us: degrade to inline
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - future carries the outcome
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Drain and shut the Session's worker pool down (idempotent).

        Safe while requests are in flight: the pool is detached under the
        lock, then drained *outside* it (``shutdown(wait=True)``), so
        concurrent fan-outs are never blocked on the lock for the length
        of the drain — they either finish on the detached pool's threads
        or grow a fresh pool for their remaining tasks.  A second
        ``close()`` finds no pool and is a no-op.  Only needed for prompt
        thread teardown — pools are also reaped at interpreter exit.
        """
        with self._pool_lock:
            pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _windowed_results(
        self, workers: int, calls: "list[tuple]"
    ) -> Iterator[tuple[int, SizeLResult]]:
        """Run ``(fn, *args)`` calls with at most *workers* in flight.

        Yields ``(input index, result)`` in **completion** order; the
        window refills on ANY completion, so one slow head-of-line item
        never drains the call's parallelism.  The window is the per-call
        concurrency contract — deliberately independent of how large the
        shared pool has grown for other callers.  Exiting early (or on
        error) cancels whatever has not started.
        """
        index_of: dict[Future, int] = {}
        submitted = 0

        def submit_next() -> Future | None:
            nonlocal submitted
            if submitted >= len(calls):
                return None
            fn, *args = calls[submitted]
            future = self._submit(workers, fn, *args)
            index_of[future] = submitted
            submitted += 1
            return future

        for _ in range(min(workers, len(calls))):
            submit_next()
        try:
            pending = set(index_of)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    refill = submit_next()
                    if refill is not None:
                        pending.add(refill)
                    # pop so a long stream holds O(window) futures/results,
                    # not every result computed so far
                    yield index_of.pop(future), future.result()
        finally:
            for future in index_of:  # only the not-yet-yielded remain
                future.cancel()

    def _parallel_config(
        self,
        options: QueryOptions,
        workers: int | None,
        ordered: bool | None,
    ) -> ParallelConfig:
        """Per-call kwargs > ``options.parallel`` > the Session default."""
        config = options.parallel if options.parallel is not None else self.parallel
        changes: dict[str, Any] = {}
        if workers is not None:
            changes["workers"] = workers
        if ordered is not None:
            changes["ordered"] = ordered
        if changes:
            config = config.replace(**changes)
        return config.normalized()

    def iter_keyword_query(
        self,
        keywords: list[str] | str,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
        *,
        max_results: int | None = None,
        workers: int | None = None,
        ordered: bool | None = None,
    ) -> Iterator[KeywordResult]:
        """Stream keyword-query results as each size-l OS is computed.

        Options are validated eagerly; computation is lazy and cached.
        With an effective worker count above one the per-subject pipelines
        run on a thread pool: ``ordered=True`` (the default) preserves the
        match ranking, ``ordered=False`` yields each result the moment it
        completes.  Serial execution (``workers=1``) computes nothing
        until the stream is consumed."""
        opts = resolve_options(
            options, defaults=self.defaults, l=l, max_results=max_results
        )
        config = self._parallel_config(opts, workers, ordered)
        if config.workers == 1:
            return self._iter_keyword_query(keywords, opts)
        return self._iter_keyword_query_parallel(keywords, opts, config)

    def _iter_keyword_query(
        self, keywords: list[str] | str, options: QueryOptions
    ) -> Iterator[KeywordResult]:
        # the engine's loop, with the cached pipeline substituted in
        return self.engine._iter_keyword_query(
            keywords, options, run=self.cache.run
        )

    def _iter_keyword_query_parallel(
        self,
        keywords: list[str] | str,
        options: QueryOptions,
        config: ParallelConfig,
    ) -> Iterator[KeywordResult]:
        """The fan-out loop: one cache.run task per matching Data Subject.

        Submission is windowed via :meth:`_windowed_results` (at most
        ``config.workers`` matches in flight for this call, refilled on
        any completion).  Duplicate subjects coalesce on the cache's
        single-flight table, costing one generation (though a waiting
        duplicate does hold its window slot while it blocks).  Abandoning
        the stream cancels whatever has not started.
        """
        matches = self.engine.search_matches(keywords, options)
        if len(matches) <= 1:
            yield from (
                KeywordResult(match=m, result=self.cache.run(m.table, m.row_id, options))
                for m in matches
            )
            return
        calls = [
            (self.cache.run, match.table, match.row_id, options) for match in matches
        ]
        completions = self._windowed_results(config.workers, calls)
        try:
            if config.ordered:
                # re-sequence completion order into match-ranking order
                buffered: dict[int, SizeLResult] = {}
                next_index = 0
                for index, result in completions:
                    buffered[index] = result
                    while next_index in buffered:
                        yield KeywordResult(
                            match=matches[next_index],
                            result=buffered.pop(next_index),
                        )
                        next_index += 1
            else:
                for index, result in completions:
                    yield KeywordResult(match=matches[index], result=result)
        finally:
            completions.close()  # abandoning the stream cancels unstarted work

    def keyword_query(
        self,
        keywords: list[str] | str,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
        *,
        max_results: int | None = None,
        workers: int | None = None,
        ordered: bool | None = None,
    ) -> list[KeywordResult]:
        """The batch form of :meth:`iter_keyword_query`."""
        return list(
            self.iter_keyword_query(
                keywords,
                l,
                options,
                max_results=max_results,
                workers=workers,
                ordered=ordered,
            )
        )

    # ------------------------------------------------------------------ #
    # Live mutation state
    # ------------------------------------------------------------------ #
    @property
    def live(self) -> "Any | None":
        """The session's :class:`~repro.live.LiveState`, if activated."""
        return self._live

    def live_state(self) -> "Any":
        """The session's live mutation state, activating it on first use.

        Activation swaps the engine's derived structures for their
        delta-overlaid counterparts; commits then take the write side of
        the engine's read/write lock (:meth:`guard`)."""
        if self._live is None:
            with self._live_lock:
                if self._live is None:
                    from repro.live.state import LiveState

                    self._live = LiveState(self)
        return self._live

    def guard(self) -> "Any":
        """The read/write guard consistent reads must run under.

        The engine's :class:`~repro.live.ReadWriteLock`, frozen dataset
        or not: a commit, the first one included, waits for every read
        section already open."""
        return self.engine.live_guard

    @property
    def dataset_version(self) -> int:
        """Monotonic count of committed transactions (0 = as built)."""
        return self.engine.db.data_version

    def apply_mutations(self, operations: "Iterable[Any]") -> "Any":
        """Commit a transaction and incrementally maintain every derived
        structure; returns the :class:`~repro.live.LiveCommit`."""
        return self.live_state().apply(list(operations))

    # ------------------------------------------------------------------ #
    # Pass-throughs and management
    # ------------------------------------------------------------------ #
    def complete_os(self, rds_table: str, row_id: int) -> FlatOS:
        """The (cached) complete OS of a Data Subject."""
        return self.cache.complete_os_flat(rds_table, row_id)

    def prelim_os(
        self,
        rds_table: str,
        row_id: int,
        l: int,  # noqa: E741
        backend: object = None,
    ) -> tuple[FlatOS, PrelimStats]:
        if backend is None:
            return self.engine.prelim_os(rds_table, row_id, l)
        return self.engine.prelim_os(rds_table, row_id, l, backend=backend)

    def invalidate(
        self, rds_table: str | None = None, row_id: int | None = None
    ) -> None:
        self.cache.invalidate(rds_table, row_id)

    def cache_stats(self) -> CacheStats:
        """A typed, atomic reading of the cache counters."""
        return self.cache.stats()

    def describe(self) -> dict[str, Any]:
        """The engine snapshot plus cache statistics (JSON-shaped)."""
        info = self.engine.describe()
        info["cache"] = self.cache.stats().as_dict()
        info["dataset_version"] = self.dataset_version
        info["watch_active"] = (
            self._live.watches.active_count if self._live is not None else 0
        )
        info["defaults"] = {
            "l": self.defaults.l,
            "algorithm": self.defaults.algorithm_name,
            "source": self.defaults.source_name,
            "backend": self.defaults.backend_name,
        }
        info["parallel"] = {
            "workers": self.parallel.workers,
            "ordered": self.parallel.ordered,
        }
        snapshot = self.cache.snapshot
        info["snapshot"] = (
            None
            if snapshot is None
            else {"path": str(snapshot.path), "subjects": len(snapshot)}
        )
        return info
