"""EngineBuilder — the single construction path for engines and sessions.

The CLI, the benchmark fixtures, and every example used to copy-paste
``SizeLEngine(db, {root: gds, ...}, store)`` wiring; they now all build
through here.  Three entry points:

* :meth:`EngineBuilder.from_dataset` — any dataset object exposing
  ``db`` / ``default_gds()`` / ``default_store()`` (the synthetic DBLP and
  TPC-H datasets do);
* :meth:`EngineBuilder.named` — the CLI's on-the-fly ``"dblp"`` /
  ``"tpch"`` databases, deterministic under ``seed`` and sized by
  ``scale``;
* the fluent ``with_*`` methods — custom databases (see
  ``examples/custom_database.py``).

:meth:`EngineBuilder.with_snapshot` attaches a precomputed
:mod:`repro.persist` snapshot: the engine is built with the snapshot's
memory-mapped data graph, inverted index, and (unless the builder was
given one explicitly) importance store, and a Session built through
:meth:`build_session` serves precomputed complete OSs from the
snapshot's tree arena.  The dataset's default store is resolved
**lazily** for exactly this reason — a warm start must not pay the
ranking power iteration it is about to load from disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.core.engine import SizeLEngine
from repro.core.options import QueryOptions
from repro.datagraph.graph import DataGraph
from repro.db.database import Database
from repro.errors import SummaryError
from repro.ranking.store import ImportanceStore
from repro.schema_graph.gds import GDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.persist.snapshot import Snapshot

#: Datasets :meth:`EngineBuilder.named` can synthesise on the fly.
NAMED_DATASETS = ("dblp", "tpch")


def build_named_dataset(name: str, *, seed: int = 7, scale: float = 1.0) -> Any:
    """Synthesise one of the demo databases (deterministic under seed)."""
    if name == "dblp":
        from repro.datasets.dblp import DBLPConfig, generate_dblp

        return generate_dblp(
            DBLPConfig(
                n_authors=max(30, int(300 * scale)),
                n_papers=max(60, int(800 * scale)),
                seed=seed,
            )
        )
    if name == "tpch":
        from repro.datasets.tpch import TPCHConfig, generate_tpch

        return generate_tpch(TPCHConfig(scale_factor=0.003 * scale, seed=seed))
    raise SummaryError(
        f"unknown dataset {name!r}; choose from {list(NAMED_DATASETS)}"
    )


class EngineBuilder:
    """Fluent builder for :class:`~repro.core.engine.SizeLEngine` and
    :class:`~repro.session.Session`."""

    def __init__(self) -> None:
        self._db: Database | None = None
        self._gds: dict[str, GDS] = {}
        self._store: ImportanceStore | None = None
        #: lazy default-store fallback (see with_snapshot / from_dataset)
        self._store_factory: Callable[[], ImportanceStore] | None = None
        self._theta: float = 0.7
        self._data_graph: DataGraph | None = None
        self._snapshot: "Snapshot | None" = None
        #: session-level presets (see with_defaults / with_cache_size) so
        #: a Deployment entry can be described fully by one configured
        #: builder
        self._defaults: QueryOptions | None = None
        self._cache_size: int = 64
        #: buffer-pool sizing (see with_buffer_pool); None = fully resident
        self._pool_bytes: int | None = None
        self._pool_page_bytes: int | None = None

    # ------------------------------------------------------------------ #
    # Fluent configuration
    # ------------------------------------------------------------------ #
    def with_database(self, db: Database) -> "EngineBuilder":
        self._db = db
        return self

    def with_gds(self, root: str, gds: GDS) -> "EngineBuilder":
        """Register the (unpruned) G_DS of one R_DS table."""
        self._gds[root] = gds
        return self

    def with_store(self, store: ImportanceStore) -> "EngineBuilder":
        self._store = store
        self._store_factory = None
        return self

    def with_theta(self, theta: float) -> "EngineBuilder":
        self._theta = theta
        return self

    def with_data_graph(self, data_graph: DataGraph) -> "EngineBuilder":
        self._data_graph = data_graph
        return self

    def with_snapshot(
        self, snapshot: "str | Path | Snapshot", *, verify: bool = True
    ) -> "EngineBuilder":
        """Attach a precomputed :mod:`repro.persist` snapshot.

        Accepts a snapshot directory path (opened — and checksum-verified
        unless ``verify=False`` — immediately, so a corrupt snapshot
        fails here, not mid-build) or an already opened
        :class:`~repro.persist.snapshot.Snapshot`.  :meth:`build`
        validates the snapshot's fingerprint against the configured
        database/G_DS/θ and rejects mismatches.
        """
        from repro.persist.snapshot import Snapshot

        if not isinstance(snapshot, Snapshot):
            snapshot = Snapshot.open(snapshot, verify=verify)
        self._snapshot = snapshot
        return self

    def with_defaults(self, defaults: QueryOptions) -> "EngineBuilder":
        """Seed every query of a built Session with these options."""
        self._defaults = defaults.normalized()
        return self

    def with_cache_size(self, cache_size: int) -> "EngineBuilder":
        """Bound a built Session's SummaryCache (subjects, LRU)."""
        if cache_size < 1:
            raise SummaryError(f"cache_size must be >= 1, got {cache_size}")
        self._cache_size = cache_size
        return self

    def with_buffer_pool(
        self, capacity_bytes: int, *, page_bytes: int | None = None
    ) -> "EngineBuilder":
        """Serve the data graph through a bounded page pool
        (:mod:`repro.storage.bufferpool`) instead of fully resident.

        Most useful with :meth:`with_snapshot`, where the CSR arenas are
        mmap'd files and the pool bounds how much of them RAM ever
        holds; the engine's ``buffer_pool`` exposes hit/miss/eviction
        counters through ``CacheStats`` and ``/v1/metrics``."""
        if capacity_bytes < 1:
            raise SummaryError(
                f"buffer pool capacity must be >= 1 byte, got {capacity_bytes}"
            )
        self._pool_bytes = int(capacity_bytes)
        self._pool_page_bytes = page_bytes
        return self

    # ------------------------------------------------------------------ #
    # Prefab configurations
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataset(
        cls,
        dataset: Any,
        *,
        store: ImportanceStore | None = None,
        theta: float = 0.7,
    ) -> "EngineBuilder":
        """Configure from a dataset's presets; ``store=None`` defers to the
        dataset's default ranking (ObjectRank for DBLP, ValueRank for
        TPC-H), computed lazily at :meth:`build` time — or loaded from an
        attached snapshot instead, skipping the computation entirely."""
        builder = cls().with_database(dataset.db).with_theta(theta)
        for root, gds in dataset.default_gds().items():
            builder.with_gds(root, gds)
        if store is not None:
            return builder.with_store(store)
        builder._store_factory = dataset.default_store
        return builder

    @classmethod
    def named(
        cls,
        name: str,
        *,
        seed: int = 7,
        scale: float = 1.0,
        store: ImportanceStore | None = None,
        theta: float = 0.7,
    ) -> "EngineBuilder":
        """Configure from one of the on-the-fly demo databases."""
        dataset = build_named_dataset(name, seed=seed, scale=scale)
        return cls.from_dataset(dataset, store=store, theta=theta)

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    def _resolve_store(self) -> ImportanceStore:
        """Explicit store > snapshot store > dataset default factory.

        The factory result is memoised into ``_store`` so repeated
        ``build()`` calls on one builder share one store object instead
        of re-running the ranking power iteration per build.
        """
        if self._store is not None:
            return self._store
        if self._snapshot is not None:
            return self._snapshot.store()
        if self._store_factory is not None:
            self._store = self._store_factory()
            return self._store
        raise SummaryError("EngineBuilder: no importance store configured")

    def build(self) -> SizeLEngine:
        if self._db is None:
            raise SummaryError("EngineBuilder: no database configured")
        if not self._gds:
            raise SummaryError(
                "EngineBuilder: no G_DS registered; add at least one via "
                "with_gds(root, gds)"
            )
        if self._snapshot is not None:
            # Fingerprint check FIRST — before the snapshot's store/data
            # graph/index are used to construct anything — so a
            # cross-dataset snapshot fails with the clear mismatch error,
            # not whatever the foreign structures happen to break.  The
            # fingerprint covers the pruned G_DS; pruning here duplicates
            # the engine's own prune, which is O(G_DS nodes) and trivial.
            self._snapshot.validate_dataset(
                self._db,
                {root: gds.prune(self._theta) for root, gds in self._gds.items()},
                self._theta,
            )
        store = self._resolve_store()
        data_graph = self._data_graph
        search_index = None
        if self._snapshot is not None:
            if data_graph is None:
                data_graph = self._snapshot.data_graph()
            search_index = self._snapshot.search_index(self._db)
        engine = SizeLEngine(
            self._db,
            dict(self._gds),
            store,
            theta=self._theta,
            data_graph=data_graph,
            search_index=search_index,
        )
        if self._pool_bytes is not None:
            from repro.storage.bufferpool import (
                DEFAULT_PAGE_BYTES,
                BufferPool,
                paged_data_graph,
            )

            pool = BufferPool(
                self._pool_bytes,
                page_bytes=self._pool_page_bytes or DEFAULT_PAGE_BYTES,
            )
            # engine.data_graph forces the lazy CSR build when neither a
            # snapshot nor with_data_graph supplied one, so the pool works
            # (and is testable) on in-memory graphs too.
            engine._data_graph = paged_data_graph(engine.data_graph, pool)
            engine.buffer_pool = pool
        if self._snapshot is not None:
            # Full validation again post-construction (store digest for
            # engines carrying their own store; dataset re-check is ~0.2ms
            # thanks to the cached table content hashes).
            self._snapshot.validate_engine(engine)
        return engine

    def build_session(
        self,
        *,
        cache_size: int | None = None,
        defaults: QueryOptions | None = None,
    ) -> "Any":
        """Build the engine wrapped in a :class:`~repro.session.Session`.

        Explicit kwargs override the builder's ``with_defaults`` /
        ``with_cache_size`` presets.  An attached
        snapshot carries through: the Session's cache serves precomputed
        complete OSs from the snapshot's tree arena.  The snapshot is
        validated once in :meth:`build` and once more when the cache
        attaches — deliberate: re-validation costs ~0.2 ms (table content
        hashes are cached) and skipping it would re-open the stale-attach
        hole a memoised validation had."""
        from repro.session import Session

        return Session(
            self.build(),
            cache_size=self._cache_size if cache_size is None else cache_size,
            defaults=defaults if defaults is not None else self._defaults,
            snapshot=self._snapshot,
        )
