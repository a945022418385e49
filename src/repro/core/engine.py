"""The public size-l OS query engine.

Ties every subsystem together: keyword search resolves Data Subjects, the
θ-pruned and annotated G_DS drives OS generation (complete or prelim-l,
over any registered backend), and the chosen algorithm (DP, Bottom-Up,
Top-Path, or a registered plugin) produces the size-l OSs.  This is the
paper's end-to-end pipeline:

    query "Faloutsos", l=15
      → three Author t_DS matches
      → three size-15 OSs (Example 5).

Algorithm and backend selection flow through :mod:`repro.core.registry`;
every knob of a query travels in one
:class:`~repro.core.options.QueryOptions`.  Construction goes through
:class:`~repro.core.builder.EngineBuilder` / :meth:`SizeLEngine.from_dataset`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.generation import (
    DataGraphBackend,
    GenerationBackend,
    generate_os,
    generate_os_flat,
)
from repro.core.options import (
    Backend,
    QueryOptions,
    ResultStats,
    Source,
    resolve_options,
)
from repro.core.os_tree import FlatOS, SizeLResult, validate_l
from repro.core.prelim import PrelimStats, generate_prelim_os
from repro.core.registry import get_algorithm, get_backend_factory
from repro.datagraph.builder import build_data_graph
from repro.datagraph.graph import DataGraph
from repro.db.database import Database
from repro.db.query import QueryInterface
from repro.errors import SummaryError
from repro.live.locks import ReadWriteLock
from repro.ranking.store import ImportanceStore, annotate_gds
from repro.reliability.deadline import check_deadline
from repro.schema_graph.gds import GDS
from repro.search.inverted_index import BaseInvertedIndex
from repro.search.keyword import DataSubjectMatch, KeywordSearcher

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.builder import EngineBuilder

#: ``engine.size_l`` keeps the pre-QueryOptions default of summarising the
#: complete OS; the end-to-end keyword paradigm defaults to prelim.
_SIZE_L_DEFAULTS = QueryOptions(source=Source.COMPLETE)
_KEYWORD_DEFAULTS = QueryOptions(source=Source.PRELIM)


@dataclass
class KeywordResult:
    """One ranked entry of a keyword query's result list."""

    match: DataSubjectMatch
    result: SizeLResult


class SizeLEngine:
    """End-to-end engine over one database.

    Parameters
    ----------
    db:
        The database.
    gds_by_root:
        One (unpruned) G_DS per R_DS table; the engine applies θ and
        annotates max/mmax statistics.
    store:
        Global importance scores (ObjectRank / ValueRank / ...).
    theta:
        The affinity threshold; the paper uses θ = 0.7 throughout.
    data_graph:
        Optional prebuilt data graph; built lazily when the data-graph
        backend is first used.

    Prefer :meth:`from_dataset` / :class:`~repro.core.builder.EngineBuilder`
    over calling this constructor directly.
    """

    def __init__(
        self,
        db: Database,
        gds_by_root: dict[str, GDS],
        store: ImportanceStore,
        theta: float = 0.7,
        data_graph: DataGraph | None = None,
        search_index: "BaseInvertedIndex | None" = None,
    ) -> None:
        self.db = db
        self.store = store
        self.theta = theta
        self.gds_by_root = {
            root: gds.prune(theta) for root, gds in gds_by_root.items()
        }
        for gds in self.gds_by_root.values():
            annotate_gds(gds, store)
        self._data_graph = data_graph
        self._data_graph_lock = threading.Lock()
        # Set by EngineBuilder.with_buffer_pool when the data graph is
        # paged over mmap arenas (repro.storage); stats() surfaces its
        # hit/miss/eviction counters.
        self.buffer_pool = None
        # Every read section runs under this lock, frozen dataset or not;
        # the live state's commits take its write side.
        self.live_guard = ReadWriteLock()
        self.query_interface = QueryInterface(db)
        # search_index lets a snapshot supply its prebuilt (memory-mapped)
        # inverted index instead of paying the tokenizing build scan here.
        self.searcher = KeywordSearcher(
            db, list(self.gds_by_root), store, index=search_index
        )

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
        data_graph: DataGraph | None = None,
    ) -> "SizeLEngine":
        """Build an engine from a dataset exposing ``db`` / ``default_gds()``
        / ``default_store()`` (the synthetic DBLP and TPC-H datasets do)."""
        from repro.core.builder import EngineBuilder

        builder = EngineBuilder.from_dataset(dataset, store=store, theta=theta)
        if data_graph is not None:
            builder.with_data_graph(data_graph)
        return builder.build()

    @classmethod
    def builder(cls) -> "EngineBuilder":
        """A fresh :class:`~repro.core.builder.EngineBuilder`."""
        from repro.core.builder import EngineBuilder

        return EngineBuilder()

    # ------------------------------------------------------------------ #
    # Backends
    # ------------------------------------------------------------------ #
    @property
    def data_graph(self) -> DataGraph:
        if self._data_graph is None:
            # Double-checked: concurrent requests must not each pay (or
            # race) the one-off CSR build.
            with self._data_graph_lock:
                if self._data_graph is None:
                    self._data_graph = build_data_graph(self.db)
        return self._data_graph

    def backend(self, kind: str | Backend = Backend.DATAGRAPH) -> GenerationBackend:
        """Instantiate a registered backend: ``"datagraph"`` (fast,
        in-memory), ``"database"`` (I/O counted), or any plugin name."""
        name = kind.value if isinstance(kind, Backend) else kind
        return get_backend_factory(name)(self)

    def gds_for(self, rds_table: str) -> GDS:
        try:
            return self.gds_by_root[rds_table]
        except KeyError:
            raise SummaryError(
                f"no G_DS registered for R_DS table {rds_table!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # OS generation
    # ------------------------------------------------------------------ #
    def complete_os(
        self,
        rds_table: str,
        row_id: int,
        backend: str | Backend = Backend.DATAGRAPH,
        depth_limit: int | None = None,
    ) -> FlatOS:
        """Generate the complete OS of a Data Subject (Algorithm 5).

        The data graph takes the level-synchronous
        :meth:`complete_os_flat`; every other backend the per-parent
        :func:`~repro.core.generation.generate_os`.  Both emit the same
        tree, node for node.
        """
        with self.live_guard.read():  # re-entrant: complete_os_flat nests
            gen_backend = self.backend(backend)
            if isinstance(gen_backend, DataGraphBackend):
                return self.complete_os_flat(rds_table, row_id, depth_limit=depth_limit)
            return generate_os(
                row_id,
                self.gds_for(rds_table),
                gen_backend,
                self.store,
                depth_limit=depth_limit,
            )

    def complete_os_flat(
        self,
        rds_table: str,
        row_id: int,
        depth_limit: int | None = None,
    ) -> FlatOS:
        """Generate the complete OS over the data graph, a BFS level at a time.

        The columnar hot path (:func:`~repro.core.generation.generate_os_flat`)
        that serves complete OSs on the data-graph backend.
        """
        with self.live_guard.read():
            return generate_os_flat(
                row_id,
                self.gds_for(rds_table),
                DataGraphBackend(self.db, self.data_graph),
                self.store,
                depth_limit=depth_limit,
            )

    def prelim_os(
        self,
        rds_table: str,
        row_id: int,
        l: int,  # noqa: E741
        backend: str | Backend = Backend.DATAGRAPH,
        depth_limit: int | None = None,
    ) -> tuple[FlatOS, PrelimStats]:
        """Generate the top-l prelim-l OS of a Data Subject (Algorithm 4)."""
        validate_l(l)
        with self.live_guard.read():
            return generate_prelim_os(
                row_id,
                self.gds_for(rds_table),
                self.backend(backend),
                self.store,
                l,
                depth_limit=depth_limit,
            )

    # ------------------------------------------------------------------ #
    # Size-l computation
    # ------------------------------------------------------------------ #
    def size_l(
        self,
        rds_table: str,
        row_id: int,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
    ) -> SizeLResult:
        """Generate + summarise: the full pipeline for one Data Subject.

        Without *options* this summarises the complete OS (Algorithm 5),
        matching the pre-``QueryOptions`` behaviour.
        """
        opts = resolve_options(options, defaults=_SIZE_L_DEFAULTS, l=l)
        return self.run(rds_table, row_id, opts)

    def run(
        self, rds_table: str, row_id: int, options: QueryOptions
    ) -> SizeLResult:
        """The generate+summarise pipeline under *options*."""
        check_deadline()  # cancel before generation, the expensive half
        options = options.normalized()  # idempotent; catches typo'd sources
        gen_start = perf_counter()
        prelim_stats: PrelimStats | None = None
        if options.source_name == Source.COMPLETE.value:
            os_tree = self.complete_os(
                rds_table,
                row_id,
                backend=options.backend_name,
                depth_limit=options.depth_limit,
            )
        else:
            os_tree, prelim_stats = self.prelim_os(
                rds_table,
                row_id,
                options.l,
                backend=options.backend_name,
                depth_limit=options.depth_limit,
            )
        gen_seconds = perf_counter() - gen_start

        check_deadline()  # and again between generation and selection
        return self.summarise(os_tree, options, gen_seconds, prelim_stats)

    def summarise(
        self,
        os_tree: FlatOS,
        options: QueryOptions,
        generation_seconds: float,
        prelim: PrelimStats | None = None,
    ) -> SizeLResult:
        """Run the registered size-l algorithm on *os_tree* and stamp its
        :class:`ResultStats`; *options* must be normalized.

        The select half of :meth:`run`, shared with the cache, which hands
        in a tree it holds or loaded from a snapshot.  The registry is read
        per call, so a re-registered algorithm takes effect at once.
        """
        algo_start = perf_counter()
        result = get_algorithm(options.algorithm_name)(os_tree, options.l)
        algo_seconds = perf_counter() - algo_start
        result.stats = ResultStats.from_counters(
            result.stats,
            source=options.source_name,
            backend=options.backend_name,
            initial_os_size=os_tree.size,
            generation_seconds=generation_seconds,
            algorithm_seconds=algo_seconds,
            prelim=prelim,
        )
        return result

    # ------------------------------------------------------------------ #
    # Keyword queries (the paper's end-to-end paradigm)
    # ------------------------------------------------------------------ #
    def iter_keyword_query(
        self,
        keywords: list[str] | str,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
        *,
        max_results: int | None = None,
    ) -> Iterator[KeywordResult]:
        """Stream a size-l OS keyword query, one result per matching DS.

        Options are validated eagerly (before this returns); each
        :class:`KeywordResult` is yielded as soon as its size-l OS is
        computed, so the first result is available while later OSs are
        still being generated.  Results follow the global importance of
        the t_DS tuple (how the OS paradigm ranks its result list).
        """
        opts = resolve_options(
            options, defaults=_KEYWORD_DEFAULTS, l=l, max_results=max_results
        )
        return self._iter_keyword_query(keywords, opts)

    def search_matches(
        self, keywords: list[str] | str, options: QueryOptions
    ) -> list[DataSubjectMatch]:
        """The ranked t_DS matches of a keyword query.

        Applies ``options.max_results`` truncation; this is the shared
        front half of the keyword pipeline — the keyword loop below and
        the service dispatcher's paged query both start from it.
        """
        check_deadline()
        with self.live_guard.read():
            matches = self.searcher.search(keywords)
        if options.max_results is not None:
            matches = matches[: options.max_results]
        return matches

    def _iter_keyword_query(
        self,
        keywords: list[str] | str,
        options: QueryOptions,
        run: "Callable[[str, int, QueryOptions], SizeLResult] | None" = None,
    ) -> Iterator[KeywordResult]:
        """Shared keyword-query loop; *run* lets a Session substitute its
        cached pipeline for the engine's."""
        run = run if run is not None else self.run
        for match in self.search_matches(keywords, options):
            result = run(match.table, match.row_id, options)
            yield KeywordResult(match=match, result=result)

    def keyword_query(
        self,
        keywords: list[str] | str,
        l: int | None = None,  # noqa: E741
        options: QueryOptions | None = None,
        *,
        max_results: int | None = None,
    ) -> list[KeywordResult]:
        """Run a size-l OS keyword query: one size-l OS per matching DS."""
        return list(
            self.iter_keyword_query(keywords, l, options, max_results=max_results)
        )

    def describe(self) -> dict[str, Any]:
        """A small status snapshot (used by examples and docs)."""
        return {
            "database": self.db.name,
            "tables": {name: len(self.db.table(name)) for name in self.db.table_names},
            "total_rows": self.db.total_rows,
            "rds_tables": list(self.gds_by_root),
            "theta": self.theta,
        }
