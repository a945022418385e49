"""Object Summary trees.

An OS is a tree of *tuple occurrences*: the same database tuple may appear
under several branches (Michalis Faloutsos appears as Co-Author under many of
Christos's papers) and every occurrence is a distinct node with its own
weight.  Node weights are local importances Im(OS, t_i) = Im(t_i) · Af(t_i)
(Equation 3); the importance of any sub-summary is the sum of its node
weights (Equation 2).

Every generator emits, and every size-l algorithm reads, the columnar
:class:`FlatOS`.  :class:`ObjectSummary` (a tree of :class:`OSNode`) is
the render/export view of a FlatOS or of a size-l selection from one
(:meth:`FlatOS.materialise_subset`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SummaryError
from repro.schema_graph.gds import GDS, GDSNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database


class OSNode:
    """One tuple occurrence in an OS tree."""

    __slots__ = ("uid", "gds", "row_id", "parent", "children", "weight", "depth")

    def __init__(
        self,
        uid: int,
        gds: GDSNode,
        row_id: int,
        parent: "OSNode | None",
        weight: float,
    ) -> None:
        self.uid = uid
        self.gds = gds
        self.row_id = row_id
        self.parent = parent
        self.children: list[OSNode] = []
        self.weight = weight
        self.depth = 0 if parent is None else parent.depth + 1

    @property
    def table(self) -> str:
        return self.gds.table

    @property
    def label(self) -> str:
        return self.gds.label

    def path_from_root(self) -> list["OSNode"]:
        """Nodes from the OS root down to (and including) this node."""
        path: list[OSNode] = []
        node: OSNode | None = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def __repr__(self) -> str:
        return (
            f"OSNode(uid={self.uid}, {self.label}#{self.row_id}, "
            f"w={self.weight:.3f}, depth={self.depth})"
        )


class ObjectSummary:
    """The node-tree view of an OS (complete, prelim-l, or a size-l subset).

    Holds references to the database (for rendering attribute values);
    built by :meth:`FlatOS.materialise_subset`.  ``nodes`` is in BFS
    order, and a node's ``uid`` is its :class:`FlatOS` index.
    """

    def __init__(
        self,
        root: OSNode,
        db: "Database | None" = None,
        kind: str = "complete",
    ) -> None:
        self.root = root
        self.db = db
        self.kind = kind
        self.nodes: list[OSNode] = self._bfs_order()
        self._by_uid = {node.uid: node for node in self.nodes}
        if len(self._by_uid) != len(self.nodes):
            raise SummaryError("duplicate node uids in ObjectSummary")

    def _bfs_order(self) -> list[OSNode]:
        order: list[OSNode] = []
        queue = [self.root]
        cursor = 0
        while cursor < len(queue):
            node = queue[cursor]
            cursor += 1
            order.append(node)
            queue.extend(node.children)
        return order

    # ------------------------------------------------------------------ #
    # Size / structure
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of tuple occurrences (the paper's |OS|)."""
        return len(self.nodes)

    def node(self, uid: int) -> OSNode:
        try:
            return self._by_uid[uid]
        except KeyError:
            raise SummaryError(f"no OS node with uid {uid}") from None

    def total_importance(self) -> float:
        """Im of the whole summary (Equation 2 over all nodes)."""
        return sum(node.weight for node in self.nodes)

    # ------------------------------------------------------------------ #
    # Rendering (the paper's Examples 4 and 5 format)
    # ------------------------------------------------------------------ #
    def node_text(self, node: OSNode) -> str:
        """Render one node as ``Label: attr. attr.`` using its G_DS attributes."""
        if self.db is None:
            return f"{node.label}#{node.row_id}"
        table = self.db.table(node.table)
        parts: list[str] = []
        for attr in node.gds.attributes:
            value = table.value(node.row_id, attr)
            if value is None:
                continue
            parts.append(str(value))
        body = ", ".join(parts) if parts else f"#{table.pk_of_row(node.row_id)}"
        return f"{node.label}: {body}"

    def render(self, max_nodes: int | None = None, indent: str = "..") -> str:
        """Indented text rendering in the style of the paper's Example 4/5."""
        lines: list[str] = []
        budget = self.size if max_nodes is None else max_nodes

        def visit(node: OSNode) -> None:
            nonlocal budget
            if budget <= 0:
                return
            budget -= 1
            prefix = indent * node.depth
            lines.append(f"{prefix}{self.node_text(node)}")
            for child in node.children:
                visit(child)

        visit(self.root)
        if max_nodes is not None and self.size > max_nodes:
            lines.append(f"... ({self.size - max_nodes} more tuples)")
        return "\n".join(lines)

    def word_count(self) -> int:
        """Total rendered word count (drives the word-budget extension)."""
        return sum(len(self.node_text(node).split()) for node in self.nodes)

    def __repr__(self) -> str:
        return (
            f"ObjectSummary(kind={self.kind!r}, root={self.root.label!r}, "
            f"size={self.size})"
        )


class FlatOS:
    """A columnar Object Summary: parallel arrays instead of node objects.

    Index ``i`` identifies one tuple occurrence, in the BFS order
    Algorithm 5 extracts tuples; size-l selections are sets of indices.

    Invariants (guaranteed by every generator in
    :mod:`repro.core.generation`):

    * ``parent[0] == -1`` (the t_DS root) and ``parent`` is non-decreasing,
      so every node's children occupy one contiguous index range;
    * ``depth`` is non-decreasing, so each BFS level — and the depth-< l
      eligible set of the size-l algorithms — is a prefix/slice.

    Because node identity is purely positional, many FlatOS trees pack into
    one parallel-array **arena** (:meth:`pack_arena` /
    :meth:`from_arena`): tree ``i`` of the arena is the slice
    ``indptr[i]:indptr[i + 1]`` of every column.  The slices are views, so
    unpacking from a ``numpy`` memory map is zero-copy — the snapshot store
    (:mod:`repro.persist`) serves complete OSs straight off disk this way.
    """

    #: The parallel arrays an arena concatenates, in canonical order.
    ARENA_FIELDS = ("parent", "depth", "gds_node_id", "row_id", "weight")

    __slots__ = (
        "parent",
        "depth",
        "gds_node_id",
        "row_id",
        "weight",
        "gds",
        "db",
        "kind",
        "_gds_by_id",
        "_child_bounds",
    )

    def __init__(
        self,
        parent: np.ndarray,
        depth: np.ndarray,
        gds_node_id: np.ndarray,
        row_id: np.ndarray,
        weight: np.ndarray,
        gds: GDS,
        db: "Database | None" = None,
        kind: str = "complete",
    ) -> None:
        n = len(parent)
        if not (len(depth) == len(gds_node_id) == len(row_id) == len(weight) == n):
            raise SummaryError("FlatOS parallel arrays must have equal length")
        if n == 0 or parent[0] != -1:
            raise SummaryError("FlatOS must start with the t_DS root (parent -1)")
        self.parent = parent
        self.depth = depth
        self.gds_node_id = gds_node_id
        self.row_id = row_id
        self.weight = weight
        self.gds = gds
        self.db = db
        self.kind = kind
        self._gds_by_id: dict[int, GDSNode] = {
            node.node_id: node for node in gds.nodes()
        }
        self._child_bounds: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Size / structure
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of tuple occurrences (the paper's |OS|)."""
        return len(self.parent)

    def gds_node(self, index: int) -> GDSNode:
        """The G_DS node of the tuple occurrence at *index*."""
        return self._gds_by_id[int(self.gds_node_id[index])]

    def max_depth(self) -> int:
        return int(self.depth[-1])  # depth is non-decreasing

    def total_importance(self) -> float:
        """Im of the whole summary (Equation 2 over all nodes)."""
        return float(self.weight.sum())

    def child_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays ``(start, end)``: node i's children are ``start[i]:end[i]``.

        Valid because ``parent`` is non-decreasing in BFS order; computed
        once and cached.
        """
        if self._child_bounds is None:
            n = self.size
            counts = np.bincount(self.parent[1:], minlength=n)
            ends = np.cumsum(counts) + 1
            self._child_bounds = (ends - counts, ends)
        return self._child_bounds

    def eligible_count(self, l: int) -> int:  # noqa: E741 - paper notation
        """Nodes at depth < l — a prefix, because ``depth`` is sorted."""
        return int(np.searchsorted(self.depth, l, side="left"))

    def eligible_child_bounds(
        self, l: int  # noqa: E741 - paper notation
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`child_bounds` clipped to the depth-< l eligible prefix."""
        n_el = self.eligible_count(l)
        starts, ends = self.child_bounds()
        return np.minimum(starts[:n_el], n_el), np.minimum(ends[:n_el], n_el)

    def eligible_subtree_sizes(self, l: int) -> np.ndarray:  # noqa: E741
        """Per-node subtree sizes restricted to the eligible prefix.

        One reversed level-synchronous sweep: children of level-d nodes all
        live in level d+1, so each level is folded into its parents with a
        single scatter-add.
        """
        n_el = self.eligible_count(l)
        sizes = np.ones(n_el, dtype=np.int64)
        level_starts = np.searchsorted(self.depth[:n_el], np.arange(1, l + 1))
        for level in range(len(level_starts) - 1, 0, -1):
            lo, hi = level_starts[level - 1], level_starts[level]
            if lo < hi:
                np.add.at(sizes, self.parent[lo:hi], sizes[lo:hi])
        return sizes

    def prefix_weights(self, limit: int | None = None) -> np.ndarray:
        """Root-to-node weight sums, one level-synchronous sweep.

        *limit* restricts the sweep to the first *limit* nodes (a valid cut
        because BFS order puts every parent before its children) — callers
        that only need the depth-< l eligible prefix avoid touching the
        rest of a large OS.
        """
        n = self.size if limit is None else min(limit, self.size)
        sums = np.empty(n, dtype=np.float64)
        sums[0] = self.weight[0]
        level_starts = np.searchsorted(
            self.depth[:n], np.arange(1, self.max_depth() + 2), side="left"
        )
        start = 1
        for end in level_starts:
            if end > start:
                sums[start:end] = (
                    self.weight[start:end] + sums[self.parent[start:end]]
                )
            start = end
            if start >= n:
                break
        return sums

    # ------------------------------------------------------------------ #
    # Arena pack/unpack (the snapshot store's on-disk layout)
    # ------------------------------------------------------------------ #
    @staticmethod
    def pack_arena(trees: "Sequence[FlatOS]") -> dict[str, np.ndarray]:
        """Concatenate *trees* into one parallel-array arena.

        Returns the five :attr:`ARENA_FIELDS` columns plus ``indptr``
        (``int64``, length ``len(trees) + 1``): tree ``i`` occupies
        ``indptr[i]:indptr[i + 1]`` of every column.  ``parent`` values stay
        tree-local (each slice starts with the ``-1`` root), so a slice is
        a complete, self-contained FlatOS.
        """
        sizes = np.fromiter((tree.size for tree in trees), dtype=np.int64, count=len(trees))
        indptr = np.zeros(len(trees) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        arena: dict[str, np.ndarray] = {"indptr": indptr}
        empties = {
            "parent": np.int32, "depth": np.int32, "gds_node_id": np.int32,
            "row_id": np.int32, "weight": np.float64,
        }
        for name in FlatOS.ARENA_FIELDS:
            if trees:
                arena[name] = np.concatenate([getattr(tree, name) for tree in trees])
            else:
                arena[name] = np.empty(0, dtype=empties[name])
        return arena

    @classmethod
    def from_arena(
        cls,
        arena: "Mapping[str, np.ndarray]",
        index: int,
        gds: GDS,
        db: "Database | None" = None,
        kind: str = "complete",
    ) -> "FlatOS":
        """Tree *index* of a packed arena, as zero-copy column slices.

        *arena* is any mapping holding ``indptr`` plus the
        :attr:`ARENA_FIELDS` columns — in particular the memory-mapped
        arrays of an opened snapshot.  The slices share the arena's storage
        (read-only when the arena is an ``mmap_mode="r"`` load), which is
        fine: nothing in the library mutates FlatOS columns after
        construction.
        """
        indptr = arena["indptr"]
        if not 0 <= index < len(indptr) - 1:
            raise SummaryError(
                f"arena tree index out of range: {index} (arena holds "
                f"{len(indptr) - 1} trees)"
            )
        lo, hi = int(indptr[index]), int(indptr[index + 1])
        return cls(
            parent=arena["parent"][lo:hi],
            depth=arena["depth"][lo:hi],
            gds_node_id=arena["gds_node_id"][lo:hi],
            row_id=arena["row_id"][lo:hi],
            weight=arena["weight"][lo:hi],
            gds=gds,
            db=db,
            kind=kind,
        )

    # ------------------------------------------------------------------ #
    # The ObjectSummary view (rendering, export, node walks)
    # ------------------------------------------------------------------ #
    def to_object_summary(self, kind: str | None = None) -> ObjectSummary:
        """Materialise the full tree as an :class:`ObjectSummary`.

        The view for rendering, export, and node-walking code such as the
        brute-force oracle; uid == flat index.
        """
        return self.materialise_subset(
            range(self.size), kind=self.kind if kind is None else kind
        )

    def materialise_subset(
        self, selected: Iterable[int], kind: str = "size-l"
    ) -> ObjectSummary:
        """Build an :class:`ObjectSummary` restricted to *selected* indices.

        The subset must contain the root (index 0) and be connected, as
        Definition 1 requires; uids of the produced nodes are flat indices.
        """
        order = sorted(int(i) for i in selected)  # ascending == parents first
        if not order or order[0] != 0:
            raise SummaryError("size-l subset must contain the OS root (t_DS)")
        nodes: dict[int, OSNode] = {}
        for index in order:
            if index >= self.size:
                raise SummaryError(f"selected index not present in OS: {index}")
            parent_index = int(self.parent[index])
            if parent_index < 0:
                parent_node = None
            else:
                parent_node = nodes.get(parent_index)
                if parent_node is None:
                    raise SummaryError(
                        f"size-l subset is disconnected: node {index} selected "
                        f"without its parent {parent_index}"
                    )
            node = OSNode(
                index,
                self.gds_node(index),
                int(self.row_id[index]),
                parent_node,
                float(self.weight[index]),
            )
            if parent_node is not None:
                parent_node.children.append(node)
            nodes[index] = node
        return ObjectSummary(nodes[0], db=self.db, kind=kind)

    def __repr__(self) -> str:
        return (
            f"FlatOS(kind={self.kind!r}, root={self.gds.root.label!r}, "
            f"size={self.size})"
        )


@dataclass
class SizeLResult:
    """Outcome of a size-l computation.

    ``summary`` is the selected subtree materialised as its own
    :class:`ObjectSummary`; ``importance`` is Im(S) (Equation 2);
    ``stats`` carries algorithm-specific counters (heap operations, DP cell
    updates, I/O accesses, elapsed seconds) for the efficiency experiments.
    """

    summary: ObjectSummary
    selected_uids: set[int]
    importance: float
    algorithm: str
    l: int  # noqa: E741 - paper notation
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.selected_uids)

    def render(self) -> str:
        return self.summary.render()


def validate_l(l: object) -> int:  # noqa: E741 - paper notation
    """Validate a summary size parameter, returning it as an int."""
    from repro.errors import InvalidSizeError

    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        raise InvalidSizeError(l)
    return l
