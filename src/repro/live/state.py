"""LiveState: the per-session coordinator of the write path.

Activating live state on a :class:`~repro.session.Session` swaps the
engine's frozen derived structures for their delta-overlaid counterparts
(:class:`~repro.live.delta_graph.LiveDataGraph`,
:class:`~repro.live.delta_index.LiveInvertedIndex`); the overlays start
empty, so readers see the same answers across the swap.  From then on
every committed transaction flows through :meth:`LiveState.apply` under
the write side of the engine's :class:`~repro.live.locks.ReadWriteLock`,
which waits out every read section already open:

1. the ``live.apply`` fault site fires *before* any state changes, so an
   injected fault is a clean abort (503, nothing torn);
2. pre-mutation dirty subjects are walked on the old edges;
3. the transaction commits on the :class:`~repro.db.database.Database`
   (its own undo log guarantees all-or-nothing);
4. importance arrays grow to cover inserted rows (new tuples take their
   table's mean importance — importance is *frozen* between compactions,
   which is what makes incremental == rebuild well-defined);
5. inverted-index and data-graph deltas are patched from the commit's
   :class:`~repro.db.mutation.RowChange` records;
6. post-mutation dirty subjects are walked on the new edges, and the
   union is surgically invalidated in the summary cache — targeted
   subtree patches, not invalidate-everything-touching-a-table;
7. registered watches whose token sets intersect the commit's touched
   tokens are re-evaluated and notified.

:meth:`compact` folds the deltas into fresh frozen structures (a new
generation), optionally writing a :mod:`repro.persist` snapshot
directory so the next cold start attaches the post-mutation dataset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.db.mutation import CommitResult, Delete, Insert, Update
from repro.errors import BackendIOError
from repro.live.delta_graph import LiveDataGraph
from repro.live.delta_index import LiveInvertedIndex
from repro.live.dirty import dirty_subjects
from repro.live.watch import Watch, WatchRegistry
from repro.reliability import inject
from repro.search.inverted_index import InvertedIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from pathlib import Path

    from repro.session import Session

#: The fault-injection site armed by chaos schedules: fires inside the
#: write lock, before any visible change — an injected fault aborts the
#: mutation cleanly (maps to 503; the database is untouched).
APPLY_FAULT_SITE = "live.apply"


class LiveCommit:
    """What one applied transaction did, for responses and tests."""

    __slots__ = ("commit", "dirty", "touched_tokens", "notified")

    def __init__(
        self,
        commit: CommitResult,
        dirty: set[tuple[str, int]],
        touched_tokens: set[str],
        notified: int,
    ) -> None:
        self.commit = commit
        self.dirty = dirty
        self.touched_tokens = touched_tokens
        self.notified = notified

    @property
    def version(self) -> int:
        return self.commit.version

    def dirty_by_table(self) -> dict[str, list[int]]:
        """Dirty subjects grouped/sorted for deterministic wire bodies."""
        grouped: dict[str, list[int]] = {}
        for table, row_id in sorted(self.dirty):
            grouped.setdefault(table, []).append(row_id)
        return grouped


class LiveState:
    """Mutation-aware serving state for one session (see module docstring)."""

    def __init__(
        self,
        session: "Session",
        *,
        auto_compact_threshold: "int | None" = None,
    ) -> None:
        self.session = session
        self.engine = session.engine
        self.db = self.engine.db
        self.lock = self.engine.live_guard
        # force the lazy CSR build, then overlay it
        self.graph = LiveDataGraph(self.engine.data_graph, self.db)
        self.engine._data_graph = self.graph
        searcher = self.engine.searcher
        self.index = LiveInvertedIndex(searcher.index, searcher.rds_tables)
        searcher.index = self.index
        self.watches = WatchRegistry()
        self.mutations_applied = 0
        self.compactions = 0
        self.auto_compactions = 0
        #: automatic compaction policy: fold the deltas whenever the total
        #: overlay size (graph edges + index postings) crosses this after a
        #: commit; None disables the policy (PR 9's manual-only behavior)
        self.auto_compact_threshold = auto_compact_threshold

    # ------------------------------------------------------------------ #
    # The write path
    # ------------------------------------------------------------------ #
    def apply(self, operations: "Sequence[Insert | Update | Delete]") -> LiveCommit:
        """Commit *operations* and incrementally maintain every derived
        structure (see module docstring for the exact sequence)."""
        with self.lock.write():
            inject(APPLY_FAULT_SITE, BackendIOError)
            pre_touched: list[tuple[str, int]] = []
            for op in operations:
                if isinstance(op, (Update, Delete)):
                    table = self.db.table(op.table)
                    if table.has_pk(op.pk):
                        pre_touched.append((op.table, table.row_id_for_pk(op.pk)))
            # commits or raises untouched (the db's undo log is the guarantee)
            commit = self.db.apply_transaction(operations)
            # the graph still holds pre-mutation edges: walk old subjects
            dirty = dirty_subjects(self.engine.gds_by_root, self.graph, pre_touched)
            self._extend_importance(commit)
            touched_tokens = self._patch_index(commit)
            self.graph.apply_changes(commit.changes)
            dirty |= dirty_subjects(
                self.engine.gds_by_root,
                self.graph,
                [(change.table, change.row_id) for change in commit.changes],
            )
            for rds_table, row_id in sorted(dirty):
                self.session.cache.invalidate(rds_table, row_id)
            self.mutations_applied += 1
            notified = self.watches.on_commit(
                commit.version, touched_tokens, self._evaluate_top
            )
            threshold = self.auto_compact_threshold
            if threshold is not None and self.overlay_size >= threshold:
                # The write lock is re-entrant, and queries see identical
                # answers on either side of the fold — the commit we just
                # applied is already in the overlays being compacted.
                self.compact()
                self.auto_compactions += 1
            return LiveCommit(commit, dirty, touched_tokens, notified)

    def _extend_importance(self, commit: CommitResult) -> None:
        store = self.engine.store
        for table_name in sorted(
            {c.table for c in commit.changes if c.op == "insert"}
        ):
            store.extend(table_name, len(self.db.table(table_name)))

    def _patch_index(self, commit: CommitResult) -> set[str]:
        """Net per-row token deltas into the live index; returns touched
        tokens.  First old_row / last new_row win: a row updated twice in
        one transaction transitions once, from its pre-state to its final
        state."""
        firsts: dict[tuple[str, int], Any] = {}
        finals: dict[tuple[str, int], Any] = {}
        for change in commit.changes:
            key = (change.table, change.row_id)
            if key not in firsts:
                firsts[key] = change.old_row
            finals[key] = change.new_row
        touched: set[str] = set()
        for (table_name, row_id), old_row in firsts.items():
            if table_name not in self.index.tables:
                continue
            schema = self.db.table(table_name).schema
            touched |= self.index.apply_row(
                table_name, row_id, schema, old_row, finals[(table_name, row_id)]
            )
        return touched

    # ------------------------------------------------------------------ #
    # Watches
    # ------------------------------------------------------------------ #
    def _evaluate_top(
        self, keywords: tuple[str, ...], k: int
    ) -> list[dict[str, Any]]:
        matches = self.engine.searcher.search(list(keywords))
        return [
            {
                "table": match.table,
                "row_id": match.row_id,
                "importance": float(match.importance),
            }
            for match in matches[:k]
        ]

    def register_watch(
        self,
        keywords: "list[str] | tuple[str, ...]",
        k: int,
        *,
        watch_id: "str | None" = None,
    ) -> tuple[Watch, int]:
        """Register a continual query; returns (watch, dataset_version).

        The initial top-k is evaluated under the read lock, so the
        returned baseline and version describe one consistent state."""
        with self.lock.read():
            top = self._evaluate_top(tuple(keywords), k)
            watch = self.watches.register(
                list(keywords), k, top, watch_id=watch_id
            )
            return watch, self.db.data_version

    def poll_watch(
        self, watch_id: str, after_version: int, timeout_seconds: float
    ) -> tuple[Watch, list[dict[str, Any]], int]:
        watch, notifications = self.watches.poll(
            watch_id, after_version, timeout_seconds
        )
        return watch, notifications, self.db.data_version

    def cancel_watch(self, watch_id: str) -> bool:
        return self.watches.cancel(watch_id)

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(
        self,
        *,
        snapshot_dir: "str | Path | None" = None,
        subjects: "Sequence[tuple[str, int]] | None" = None,
        overwrite: bool = False,
    ) -> "Path | None":
        """Fold every delta into a fresh frozen generation.

        The compacted CSR is rebuilt per edge from the always-current
        forward arrays (one ``bincount`` + stable ``argsort``, the offline
        builder's kernel) and the inverted index from one tokenizing scan;
        overlays reset to empty so read paths return to their vectorized
        fast paths.  With *snapshot_dir* the new generation is also
        written as a :mod:`repro.persist` snapshot (complete OSs for
        *subjects*, default: every live R_DS row), so cold starts attach
        the post-mutation dataset.
        """
        with self.lock.write():
            self.graph = LiveDataGraph(self.graph.compacted(), self.db)
            self.engine._data_graph = self.graph
            self.index = self.index.rebuilt(
                InvertedIndex(self.db, self.index.tables)
            )
            self.engine.searcher.index = self.index
            self.compactions += 1
            if snapshot_dir is None:
                return None
            from repro.persist.precompute import precompute_snapshot

            if subjects is None:
                subjects = [
                    (table_name, row_id)
                    for table_name in self.engine.gds_by_root
                    for row_id, _row in self.db.table(table_name).scan()
                ]
            report = precompute_snapshot(
                self.engine, subjects, snapshot_dir, overwrite=overwrite
            )
            return report.path

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    @property
    def overlay_size(self) -> int:
        """Total delta-overlay entries: graph edges + index postings."""
        return self.graph.overlay_size + self.index.overlay_size

    def stats(self) -> dict[str, Any]:
        return {
            "dataset_version": self.db.data_version,
            "watch_active": self.watches.active_count,
            "mutations_applied": self.mutations_applied,
            "compactions": self.compactions,
            "auto_compactions": self.auto_compactions,
            "overlay_size": self.overlay_size,
            "graph_dirty_edges": sum(
                1 for adj in self.graph.adjacencies() if getattr(adj, "dirty", False)
            ),
            "index_dirty": self.index.dirty,
        }
