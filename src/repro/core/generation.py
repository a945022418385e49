"""OS generation — Algorithm 5 of the paper (and Algorithm 4's BFS).

A breadth-first traversal of the (θ-pruned) G_DS starting from the t_DS
tuple: for each dequeued tuple occurrence, each child relation of its G_DS
node is joined to fetch child tuples, which are appended to the OS tree and
enqueued.  Every generator emits a columnar
:class:`~repro.core.os_tree.FlatOS`: :func:`grow_os` one parent tuple at a
time over any backend (prelim-l generation runs the same loop with its
avoidance conditions on), :func:`generate_os_flat` a whole BFS level at a
time over the data graph.

Two backends mirror the paper's two generation strategies (Section 6.3):

* :class:`DataGraphBackend` — walks the in-memory tuple-level data graph
  ("the OSs are generated much faster using the data graph");
* :class:`DatabaseBackend` — issues one join query per (parent tuple, child
  relation) through :class:`~repro.db.query.QueryInterface`, with I/O
  accounting ("directly from the database").

Both backends also implement the thresholded TOP-l fetch that prelim-l OS
generation (Algorithm 4, Avoidance Condition 2) needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.core.os_tree import FlatOS
from repro.datagraph.graph import DataGraph
from repro.db.database import Database
from repro.db.query import QueryInterface
from repro.errors import SummaryError
from repro.ranking.store import ImportanceStore
from repro.reliability.deadline import CHECK_MASK, check_deadline
from repro.schema_graph.gds import GDS, GDSNode, JunctionJoin, RefJoin, ReverseJoin
from repro.util.heaps import BoundedTopHeap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prelim import PrelimStats


class GenerationBackend(Protocol):
    """Fetches child tuples for OS generation.

    A parent tuple is addressed by row: *parent_row* of the parent G_DS
    node's relation (``gds_child.parent.table``).  *origin_row* is the
    tuple a co-author style join must drop (see :func:`excludes_origin`),
    or ``None`` when the join excludes nothing.
    """

    @property
    def db(self) -> Database:
        ...  # pragma: no cover

    def children(
        self, gds_child: GDSNode, parent_row: int, origin_row: int | None
    ) -> "np.ndarray | list[int]":
        """Row ids of *gds_child*-relation tuples joining the parent tuple.

        May be a read-only array view into shared adjacency storage (the
        data-graph backend's zero-copy CSR slices) — callers must not
        mutate the returned sequence.
        """
        ...  # pragma: no cover

    def children_top(
        self,
        gds_child: GDSNode,
        parent_row: int,
        origin_row: int | None,
        store: ImportanceStore,
        threshold: float,
        limit: int,
    ) -> list[int]:
        """Avoidance-Condition-2 fetch: at most *limit* children whose local
        importance strictly exceeds *threshold*, best first."""
        ...  # pragma: no cover


def excludes_origin(gds_child: GDSNode) -> bool:
    """Whether *gds_child*'s join drops the tuple its parent was reached from.

    The co-author rule (:class:`~repro.schema_graph.gds.JunctionJoin`'s
    ``exclude_origin``): the Co-Authors of a Paper reached from Author x
    exclude x.  The origin is the OS grandparent, so this is decided on
    the G_DS alone, once per edge.
    """
    join = gds_child.join
    parent = gds_child.parent
    return (
        isinstance(join, JunctionJoin)
        and join.exclude_origin
        and parent is not None
        and parent.parent is not None
        and parent.parent.table == join.target_table
    )


def top_children(
    gds_child: GDSNode,
    rows: "np.ndarray | list[int]",
    store: ImportanceStore,
    threshold: float,
    limit: int,
) -> list[int]:
    """The li > *threshold* filter and TOP-*limit* cut of fetched *rows*.

    Descending local importance, ties by ascending row id — the order of
    :meth:`~repro.db.query.QueryInterface.select_top_where_eq`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return []
    # One vectorized gather scores every candidate exactly once.
    scores = store.local_importance_many(gds_child, rows)
    keep = scores > threshold
    rows, scores = rows[keep], scores[keep]
    return rows[np.lexsort((rows, -scores))[:limit]].tolist()


class DataGraphBackend:
    """Child fetches over the prebuilt tuple-level data graph."""

    def __init__(self, db: Database, data_graph: DataGraph) -> None:
        self._db = db
        self.data_graph = data_graph
        self.nodes_visited = 0

    @property
    def db(self) -> Database:
        return self._db

    def children(
        self, gds_child: GDSNode, parent_row: int, origin_row: int | None
    ) -> np.ndarray:
        # Read-only: ReverseJoin returns a zero-copy CSR slice (see
        # DataGraph.children_of); mutating it would corrupt the shared graph.
        assert gds_child.join is not None and gds_child.parent is not None
        rows = self.data_graph.children_of(
            gds_child.join, gds_child.parent.table, parent_row, origin_row
        )
        self.nodes_visited += len(rows)
        return rows

    def children_top(
        self,
        gds_child: GDSNode,
        parent_row: int,
        origin_row: int | None,
        store: ImportanceStore,
        threshold: float,
        limit: int,
    ) -> list[int]:
        rows = self.children(gds_child, parent_row, origin_row)
        return top_children(gds_child, rows, store, threshold, limit)


class DatabaseBackend:
    """Child fetches via per-join queries against the relational engine.

    Each call to :meth:`children` / :meth:`children_top` executes exactly one
    statement template (counting one I/O access), matching the paper's cost
    model: a junction hop is a single SQL join, and Avoidance Condition 2
    "still requires an I/O access even when it returns no results".
    """

    def __init__(self, query_interface: QueryInterface) -> None:
        self.qi = query_interface

    @property
    def db(self) -> Database:
        return self.qi.db

    @property
    def io_accesses(self) -> int:
        return self.qi.io_accesses

    def _junction_targets(
        self, join: JunctionJoin, junction_rows: list[int], origin: int | None
    ) -> list[int]:
        junction = self.db.table(join.junction_table)
        target = self.db.table(join.target_table)
        to_idx = junction.schema.column_index(join.to_column)
        children: list[int] = []
        for junction_row in junction_rows:
            pk = junction.row(junction_row)[to_idx]
            if pk is None:
                continue
            row = target.row_id_for_pk(pk)
            if origin is not None and row == origin:
                continue
            children.append(row)
        return children

    def children(
        self, gds_child: GDSNode, parent_row: int, origin_row: int | None
    ) -> list[int]:
        join = gds_child.join
        assert join is not None and gds_child.parent is not None
        parent_table = self.db.table(gds_child.parent.table)
        if isinstance(join, RefJoin):
            ref = parent_table.value(parent_row, join.fk_column)
            if ref is None:
                self.qi.count_io()  # the lookup still executes
                return []
            return self.qi.lookup_by_pk(join.target_table, ref)
        parent_pk = parent_table.pk_of_row(parent_row)
        if isinstance(join, ReverseJoin):
            return self.qi.select_where_eq(join.child_table, join.fk_column, parent_pk)
        if isinstance(join, JunctionJoin):
            junction_rows = self.qi.select_where_eq(
                join.junction_table, join.from_column, parent_pk
            )
            return self._junction_targets(join, junction_rows, origin_row)
        raise SummaryError(f"unknown join spec: {join!r}")  # pragma: no cover

    def children_top(
        self,
        gds_child: GDSNode,
        parent_row: int,
        origin_row: int | None,
        store: ImportanceStore,
        threshold: float,
        limit: int,
    ) -> list[int]:
        join = gds_child.join
        assert join is not None and gds_child.parent is not None
        if isinstance(join, ReverseJoin):
            def score_of(table: str, row_id: int) -> float:
                return store.local_importance(gds_child, row_id)

            parent_pk = self.db.table(gds_child.parent.table).pk_of_row(parent_row)
            return self.qi.select_top_where_eq(
                join.child_table,
                join.fk_column,
                parent_pk,
                score_of,
                threshold,
                limit,
            )
        # RefJoin and JunctionJoin: fetch (one statement) then filter/limit,
        # which is what the single SQL join with the li predicate would do.
        rows = self.children(gds_child, parent_row, origin_row)
        return top_children(gds_child, rows, store, threshold, limit)


def grow_os(
    tds_row_id: int,
    gds: GDS,
    backend: GenerationBackend,
    store: ImportanceStore,
    depth_limit: int | None = None,
    max_nodes: int | None = None,
    prelim: "PrelimStats | None" = None,
    l: int = 0,  # noqa: E741 - paper notation
) -> FlatOS:
    """The per-parent BFS behind Algorithms 4 and 5, emitting a FlatOS.

    Each dequeued tuple occurrence issues one backend fetch per child
    relation of its G_DS node and appends the children to parallel
    arrays, so node ``i`` is the ``i``-th tuple the BFS extracts.  With
    *prelim* set this is Algorithm 4: the running ``largest-l`` threshold
    is read once per (parent, child relation), in BFS order, to apply
    Avoidance Conditions 1 and 2, and *prelim* receives the counters and
    the top-l set.  Without it this is Algorithm 5 over any backend.
    """
    parents = [-1]
    depths = [0]
    nodes = [gds.root]
    rows = [int(tds_row_id)]
    weights = [store.local_importance(gds.root, tds_row_id)]
    origin_edges = {g.node_id for g in gds.nodes() if excludes_origin(g)}
    if prelim is not None:
        top_l: BoundedTopHeap[int] = BoundedTopHeap(l)
        top_l.offer(0, weights[0])
        prelim.extracted_tuples += 1
    cursor = 0
    while cursor < len(rows):
        i = cursor
        cursor += 1
        if cursor & CHECK_MASK == 0:
            check_deadline()
        depth = depths[i] + 1
        if depth_limit is not None and depth > depth_limit:
            continue
        parent_row = rows[i]
        for gds_child in nodes[i].children:
            capped = False
            if prelim is not None:
                largest_l = top_l.threshold
                # Avoidance Condition 1: the whole G_DS subtree is fruitless.
                if largest_l >= gds_child.max_local and largest_l >= gds_child.mmax_local:
                    prelim.avoided_subtrees += 1
                    continue
                # Avoidance Condition 2: descendants are fruitless; cap the join.
                capped = largest_l >= gds_child.mmax_local
            origin = rows[parents[i]] if gds_child.node_id in origin_edges else None
            if capped:
                fetched = backend.children_top(
                    gds_child, parent_row, origin, store, largest_l, l
                )
                prelim.limited_extractions += 1
            else:
                fetched = backend.children(gds_child, parent_row, origin)
                if prelim is not None:
                    prelim.full_extractions += 1
            if len(fetched) == 0:
                continue
            fetched = np.asarray(fetched)
            fetched_weights = store.local_importance_many(gds_child, fetched).tolist()
            first = len(rows)
            rows.extend(fetched.tolist())
            weights.extend(fetched_weights)
            parents.extend([i] * len(fetched_weights))
            depths.extend([depth] * len(fetched_weights))
            nodes.extend([gds_child] * len(fetched_weights))
            if max_nodes is not None and len(rows) > max_nodes:
                raise SummaryError(
                    f"OS exceeded max_nodes={max_nodes}; raise the limit or "
                    f"tighten theta/depth"
                )
            if prelim is not None:
                prelim.extracted_tuples += len(fetched_weights)
                for index, weight in enumerate(fetched_weights, first):
                    top_l.offer(index, weight)  # kept iff it beats largest-l
    if prelim is not None:
        prelim.top_l_uids = {index for index, _score in top_l.items()}
    return FlatOS(
        parent=np.array(parents, dtype=np.int32),
        depth=np.array(depths, dtype=np.int32),
        gds_node_id=np.array([node.node_id for node in nodes], dtype=np.int32),
        row_id=np.array(rows, dtype=np.int32),
        weight=np.array(weights, dtype=np.float64),
        gds=gds,
        db=backend.db,
        kind="complete" if prelim is None else "prelim",
    )


def generate_os(
    tds_row_id: int,
    gds: GDS,
    backend: GenerationBackend,
    store: ImportanceStore,
    depth_limit: int | None = None,
    max_nodes: int | None = None,
) -> FlatOS:
    """Algorithm 5 over any backend: one fetch per (parent, child relation).

    *gds* should already be θ-pruned (the engine does this); *depth_limit*
    implements the paper's footnote 1 (tuples at distance ≥ l from the root
    cannot join a connected size-l OS); *max_nodes* is a safety valve for
    pathological fan-outs (not part of the paper; ``None`` disables it).
    """
    return grow_os(tds_row_id, gds, backend, store, depth_limit, max_nodes)


def _expand_edge(
    graph: DataGraph,
    gds_parent: GDSNode,
    gds_child: GDSNode,
    parent_rows: np.ndarray,
    origin_rows: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand one G_DS edge for a whole frontier group at once.

    *parent_rows* are the rows of every frontier tuple occurrence of
    *gds_parent*; returns ``(rep, child_rows)`` where ``rep[k]`` is the
    position within *parent_rows* that produced ``child_rows[k]`` (children
    of each parent appear consecutively, in join order).  *origin_rows* is
    the co-author exclusion input: per-parent rows to drop from a
    ``JunctionJoin`` with ``exclude_origin`` (``None`` when inapplicable).
    """
    join = gds_child.join
    assert join is not None
    if isinstance(join, RefJoin):
        adj = graph.adjacency(gds_parent.table, join.fk_column)
        targets = adj.forward[parent_rows]
        mask = targets >= 0
        return np.nonzero(mask)[0], targets[mask]
    if isinstance(join, ReverseJoin):
        adj = graph.adjacency(join.child_table, join.fk_column)
        return adj.backward_many(parent_rows)
    if isinstance(join, JunctionJoin):
        into_parent = graph.adjacency(join.junction_table, join.from_column)
        to_target = graph.adjacency(join.junction_table, join.to_column)
        rep, junction_rows = into_parent.backward_many(parent_rows)
        targets = to_target.forward[junction_rows]
        mask = targets >= 0
        if origin_rows is not None:
            mask &= targets != origin_rows[rep]
        return rep[mask], targets[mask]
    raise SummaryError(f"unknown join spec: {join!r}")  # pragma: no cover


def generate_os_flat(
    tds_row_id: int,
    gds: GDS,
    backend: "DataGraphBackend",
    store: ImportanceStore,
    depth_limit: int | None = None,
    max_nodes: int | None = None,
) -> FlatOS:
    """Algorithm 5, columnar: level-synchronous frontier expansion.

    Produces exactly the tree :func:`generate_os` produces, node for node,
    but expands an entire BFS frontier per G_DS edge with
    ``np.repeat``/gathers instead of one Python iteration per tuple, and
    computes each level's weights as one vectorized
    :meth:`~repro.ranking.store.ImportanceStore.local_importance_many` call.
    Only the data-graph backend supports this path — the database backend's
    per-join I/O accounting is inherently per parent tuple.
    """
    graph = backend.data_graph
    gds_nodes = gds.nodes()
    # Per-level ordering key: parent position within the frontier is the
    # major key, the G_DS edge's rank among its parent's children the minor
    # key, so a stable sort reproduces the per-parent BFS append order exactly.
    edge_stride = max((len(n.children) for n in gds_nodes), default=1) or 1
    # Disk-resident graphs (repro.storage's buffer pool) prefer each
    # frontier group expanded in ascending row order: CSR gathers then
    # sweep the arena pages sequentially instead of randomly.  The output
    # tree is unchanged — the keys above encode *original* frontier
    # positions and the level ends in a stable argsort.
    page_order = bool(getattr(graph, "prefers_page_order", False))

    root_weight = store.local_importance(gds.root, tds_row_id)
    parent_chunks = [np.array([-1], dtype=np.int32)]
    depth_chunks = [np.zeros(1, dtype=np.int32)]
    gid_chunks = [np.array([gds.root.node_id], dtype=np.int32)]
    row_chunks = [np.array([tds_row_id], dtype=np.int32)]
    weight_chunks = [np.array([root_weight], dtype=np.float64)]

    frontier_rows = row_chunks[0]
    frontier_gids = gid_chunks[0]
    # Position of each frontier node's parent within the *previous* level
    # (drives the junction-join origin exclusion); the root has none.
    frontier_parent_pos = np.zeros(1, dtype=np.int64)
    prev_rows = np.empty(0, dtype=np.int32)

    level_offset = 0  # global index of the first node of the current level
    total = 1
    depth = 0
    while frontier_rows.size:
        check_deadline()  # per BFS level: the vectorized loop's only checkpoint
        if depth_limit is not None and depth >= depth_limit:
            break
        keys: list[np.ndarray] = []
        parents: list[np.ndarray] = []
        gids: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        present = set(frontier_gids.tolist())
        for g in gds_nodes:
            if not g.children or g.node_id not in present:
                continue
            sel = np.nonzero(frontier_gids == g.node_id)[0]
            if page_order and sel.size > 1:
                sel = sel[np.argsort(frontier_rows[sel], kind="stable")]
            parent_rows = frontier_rows[sel]
            for edge_rank, gds_child in enumerate(g.children):
                origin_rows = (
                    prev_rows[frontier_parent_pos[sel]]
                    if excludes_origin(gds_child)
                    else None
                )
                rep, child_rows = _expand_edge(
                    graph, g, gds_child, parent_rows, origin_rows
                )
                backend.nodes_visited += int(child_rows.size)
                if child_rows.size == 0:
                    continue
                total += int(child_rows.size)
                if max_nodes is not None and total > max_nodes:
                    # Checked per edge, before the level is sorted and
                    # appended, so the safety valve bounds memory too.
                    raise SummaryError(
                        f"OS exceeded max_nodes={max_nodes}; raise the limit "
                        f"or tighten theta/depth"
                    )
                frontier_pos = sel[rep]
                keys.append(frontier_pos * edge_stride + edge_rank)
                parents.append(frontier_pos)
                gids.append(
                    np.full(child_rows.size, gds_child.node_id, dtype=np.int32)
                )
                rows.append(child_rows)
                weights.append(store.local_importance_many(gds_child, child_rows))
        if not keys:
            break
        order = np.argsort(np.concatenate(keys), kind="stable")
        level_parent_pos = np.concatenate(parents)[order]
        level_rows = np.concatenate(rows)[order].astype(np.int32, copy=False)
        level_count = len(level_rows)
        parent_chunks.append((level_offset + level_parent_pos).astype(np.int32))
        depth_chunks.append(np.full(level_count, depth + 1, dtype=np.int32))
        gid_chunks.append(np.concatenate(gids)[order])
        row_chunks.append(level_rows)
        weight_chunks.append(np.concatenate(weights)[order])

        level_offset += frontier_rows.size
        prev_rows = frontier_rows
        frontier_rows = level_rows
        frontier_gids = gid_chunks[-1]
        frontier_parent_pos = level_parent_pos
        depth += 1

    return FlatOS(
        parent=np.concatenate(parent_chunks),
        depth=np.concatenate(depth_chunks),
        gds_node_id=np.concatenate(gid_chunks),
        row_id=np.concatenate(row_chunks),
        weight=np.concatenate(weight_chunks),
        gds=gds,
        db=backend.db,
        kind="complete",
    )
