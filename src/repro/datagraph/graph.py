"""The data graph: per-FK adjacency over tuple row ids, CSR-packed.

Both directions of every FK edge live in flat numpy arrays:

* ``forward[owner_row] = target_row`` (or -1 for NULL FKs);
* the reverse direction is CSR: ``backward_indices[backward_indptr[t] :
  backward_indptr[t + 1]]`` are the owner rows referencing target row ``t``,
  in ascending row order.

The CSR layout is what makes the columnar OS-generation hot path possible:
a :class:`~repro.schema_graph.gds.ReverseJoin` hop is a zero-copy array
slice, a :class:`~repro.schema_graph.gds.JunctionJoin` hop is one gather
plus a mask, and whole frontiers of parent rows expand with ``np.repeat``
(see :func:`repro.core.generation.generate_os_flat`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.schema_graph.gds import JoinSpec, JunctionJoin, RefJoin, ReverseJoin
from repro.util.arrays import gather_ranges

_EMPTY_ROWS = np.empty(0, dtype=np.int32)


@dataclass
class FkAdjacency:
    """Adjacency for one FK edge ``owner.column → target``.

    * ``forward[owner_row] = target_row`` (or -1 for NULL FKs);
    * ``backward_indptr`` / ``backward_indices`` — CSR over target rows:
      owner rows referencing target row ``t`` are
      ``backward_indices[backward_indptr[t] : backward_indptr[t + 1]]``.
    """

    owner: str
    column: str
    target: str
    forward: np.ndarray
    backward_indptr: np.ndarray
    backward_indices: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.backward_indices.size)

    def backward(self, target_row: int) -> np.ndarray:
        """Owner rows referencing *target_row* — a zero-copy CSR slice."""
        return self.backward_indices[
            self.backward_indptr[target_row] : self.backward_indptr[target_row + 1]
        ]

    def backward_many(
        self, target_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized multi-row backward expansion.

        Returns ``(rep, owner_rows)`` where ``owner_rows`` is the
        concatenation of every target row's referencing owner rows and
        ``rep[k]`` is the position within *target_rows* that produced
        ``owner_rows[k]`` (for ``np.repeat``-style frontier expansion).
        """
        starts = self.backward_indptr[target_rows]
        counts = self.backward_indptr[target_rows + 1] - starts
        rep, positions = gather_ranges(starts, counts)
        return rep, self.backward_indices[positions]

    @property
    def nbytes(self) -> int:
        """Exact memory footprint of the adjacency arrays."""
        return (
            self.forward.nbytes
            + self.backward_indptr.nbytes
            + self.backward_indices.nbytes
        )


class DataGraph:
    """An index of every FK relationship at the tuple level.

    Keyed by ``(owner_table, fk_column)``.  The graph holds row ids only —
    no attribute data — matching the paper's description of the structure.
    """

    def __init__(self, adjacencies: dict[tuple[str, str], FkAdjacency]) -> None:
        self._adj = dict(adjacencies)

    def adjacency(self, owner: str, column: str) -> FkAdjacency:
        try:
            return self._adj[(owner, column)]
        except KeyError:
            raise GraphError(f"no adjacency for FK {owner}.{column}") from None

    def adjacencies(self) -> list[FkAdjacency]:
        """Every FK adjacency, ordered by ``(owner, column)``.

        The deterministic order is what the snapshot store
        (:mod:`repro.persist`) relies on to pack and reload the CSR arrays
        file-for-file."""
        return [self._adj[key] for key in sorted(self._adj)]

    @property
    def edge_count(self) -> int:
        return sum(adj.edge_count for adj in self._adj.values())

    def size_bytes(self) -> int:
        """Exact memory footprint of the adjacency arrays.

        The CSR layout makes this exact (the paper reports 150 MB / 500 MB
        for its graphs); the old list-of-lists layout could only estimate.
        """
        return sum(adj.nbytes for adj in self._adj.values())

    # ------------------------------------------------------------------ #
    # Children materialisation per G_DS join spec
    # ------------------------------------------------------------------ #
    def children_of(
        self,
        join: JoinSpec,
        parent_table: str,
        parent_row: int,
        origin_row: int | None = None,
    ) -> np.ndarray:
        """Row ids of the child tuples reached from *parent_row* via *join*.

        Returns an int array; the :class:`~repro.schema_graph.gds.ReverseJoin`
        branch is a zero-copy CSR slice — callers must treat the result as
        read-only and must not mutate it.

        ``origin_row`` implements the co-author exclusion: for a
        :class:`~repro.schema_graph.gds.JunctionJoin` with ``exclude_origin``
        set, a child equal to the tuple the OS arrived from is dropped.
        """
        if isinstance(join, RefJoin):
            adj = self.adjacency(parent_table, join.fk_column)
            target = adj.forward[parent_row : parent_row + 1]
            return target if target[0] >= 0 else _EMPTY_ROWS
        if isinstance(join, ReverseJoin):
            adj = self.adjacency(join.child_table, join.fk_column)
            return adj.backward(parent_row)
        if isinstance(join, JunctionJoin):
            into_parent = self.adjacency(join.junction_table, join.from_column)
            to_target = self.adjacency(join.junction_table, join.to_column)
            targets = to_target.forward[into_parent.backward(parent_row)]
            mask = targets >= 0
            if join.exclude_origin and origin_row is not None:
                mask &= targets != origin_row
            return targets[mask]
        raise GraphError(f"unknown join spec: {join!r}")  # pragma: no cover

    def __repr__(self) -> str:
        return f"DataGraph(fk_edges={len(self._adj)}, tuple_edges={self.edge_count})"
