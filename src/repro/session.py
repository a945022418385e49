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

Every call runs serially on the caller's thread.  A Session is safe to
share between threads: concurrent requests meet in the thread-safe,
single-flight :class:`~repro.core.cache.SummaryCache`, so concurrent
queries for the same subject share one generation.

Quickstart::

    from repro import QueryOptions, Session
    from repro.datasets.dblp import small_dblp

    session = Session.from_dataset(small_dblp())
    for entry in session.iter_keyword_query("Faloutsos", options=QueryOptions(l=15)):
        print(entry.result.render())
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator

from repro.core.cache import CacheStats, SummaryCache
from repro.core.engine import KeywordResult, SizeLEngine
from repro.core.options import QueryOptions, resolve_options
from repro.core.os_tree import FlatOS, SizeLResult
from repro.core.prelim import PrelimStats
from repro.ranking.store import ImportanceStore


class Session:
    """Engine + cache + default options, behind one façade.

    ``defaults`` seeds every query's :class:`QueryOptions` (the stock
    defaults follow the paper's end-to-end pipeline: Top-Path over a
    prelim-l OS); a per-call ``options`` replaces it, and per-call ``l=`` /
    ``max_results=`` override either.
    """

    def __init__(
        self,
        engine: SizeLEngine,
        *,
        cache_size: int = 64,
        defaults: QueryOptions | None = None,
        snapshot: "Any | None" = None,
    ) -> None:
        self.engine = engine
        self.cache = SummaryCache(engine, max_subjects=cache_size)
        if snapshot is not None:
            # A precomputed repro.persist snapshot (or its directory
            # path): becomes the cache's disk tier.  Imported lazily, so a
            # Session without a snapshot never loads the persist package.
            from repro.persist.snapshot import Snapshot

            if not isinstance(snapshot, Snapshot):
                snapshot = Snapshot.open(snapshot)
            self.cache.attach_snapshot(snapshot)
        self.defaults = (
            defaults if defaults is not None else QueryOptions()
        ).normalized()
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
        return builder.build_session(cache_size=cache_size, defaults=defaults)

    @classmethod
    def from_named(
        cls,
        name: str,
        *,
        seed: int = 7,
        scale: float = 1.0,
        cache_size: int = 64,
        defaults: QueryOptions | None = None,
        snapshot: "Any | None" = None,
    ) -> "Session":
        """Build over one of the on-the-fly demo databases ("dblp"/"tpch")."""
        from repro.core.builder import EngineBuilder

        builder = EngineBuilder.named(name, seed=seed, scale=scale)
        if snapshot is not None:
            builder.with_snapshot(snapshot)
        return builder.build_session(cache_size=cache_size, defaults=defaults)

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
    ) -> list[SizeLResult]:
        """Batched :meth:`size_l` over ``(rds_table, row_id)`` subjects,
        returned in input order."""
        opts = resolve_options(options, defaults=self.defaults, l=l)
        return [self.cache.run(rds_table, row_id, opts) for rds_table, row_id in subjects]

    # ------------------------------------------------------------------ #
    # Keyword queries
    # ------------------------------------------------------------------ #
    def iter_keyword_query(
        self,
        keywords: list[str] | str,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
        *,
        max_results: int | None = None,
    ) -> Iterator[KeywordResult]:
        """Stream keyword-query results as each size-l OS is computed.

        Options are validated eagerly; computation is lazy and cached:
        nothing is computed until the stream is consumed."""
        opts = resolve_options(
            options, defaults=self.defaults, l=l, max_results=max_results
        )
        # the engine's loop, with the cached pipeline substituted in
        return self.engine._iter_keyword_query(keywords, opts, run=self.cache.run)

    def keyword_query(
        self,
        keywords: list[str] | str,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
        *,
        max_results: int | None = None,
    ) -> list[KeywordResult]:
        """The batch form of :meth:`iter_keyword_query`."""
        return list(
            self.iter_keyword_query(keywords, l, options, max_results=max_results)
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
        snapshot = self.cache.snapshot
        info["snapshot"] = (
            None
            if snapshot is None
            else {"path": str(snapshot.path), "subjects": len(snapshot)}
        )
        return info
