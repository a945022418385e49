"""Algorithm 4: top-l prelim-l OS generation with avoidance conditions.

A prelim-l OS is a partial OS guaranteed to contain the *top-l set* — the l
tuples of the complete OS with the largest local importance (Definition 2).
Generating it avoids extracting "fruitless" tuples:

* **Avoidance Condition 1** — if the running ``largest-l`` threshold already
  dominates both max(R_i) and mmax(R_i) of a child relation, the entire
  G_DS subtree under R_i is skipped with *no* I/O at all (the statistics
  live on the annotated G_DS).
* **Avoidance Condition 2** — if ``largest-l`` dominates mmax(R_i) only,
  R_i's tuples may still be fruitful but none of their descendants can be;
  the join is issued as ``SELECT TOP l ... AND li > largest-l``, extracting
  at most l qualifying tuples (one I/O access even when empty).

Lemma 3 (tested): under monotone local importance the prelim-l OS contains
the optimal size-l OS.  In general it need not (the paper's Figure 7 example
misses node ca16) — the quality experiments measure the practical impact,
which the paper reports as at most ~4%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.generation import GenerationBackend, grow_os
from repro.core.os_tree import FlatOS, validate_l
from repro.ranking.store import ImportanceStore
from repro.schema_graph.gds import GDS


@dataclass
class PrelimStats:
    """Counters for the Section 5.3 / 6.3 cost discussion."""

    extracted_tuples: int = 0
    avoided_subtrees: int = 0  # Avoidance Condition 1 hits
    limited_extractions: int = 0  # Avoidance Condition 2 hits
    full_extractions: int = 0
    top_l_uids: set[int] = field(default_factory=set)


def generate_prelim_os(
    tds_row_id: int,
    gds: GDS,
    backend: GenerationBackend,
    store: ImportanceStore,
    l: int,  # noqa: E741
    depth_limit: int | None = None,
) -> tuple[FlatOS, PrelimStats]:
    """Generate the top-l prelim-l OS for a t_DS tuple (Algorithm 4).

    Requires the G_DS to be annotated with max(R_i)/mmax(R_i)
    (:func:`repro.ranking.store.annotate_gds`).  Returns the prelim OS and
    extraction statistics; the OS is tagged ``kind="prelim"`` and the stats
    record which nodes (FlatOS indices) form the top-l set.
    """
    validate_l(l)
    stats = PrelimStats()
    tree = grow_os(
        tds_row_id, gds, backend, store, depth_limit, prelim=stats, l=l
    )
    return tree, stats
