"""Algorithm 2: the Bottom-Up Pruning greedy heuristic.

Iteratively prunes the current leaf with the smallest local importance until
exactly l nodes remain.  A priority queue holds the current leaves; pruning
a node whose parent thereby becomes childless pushes the parent.  The root
is never pushed (pruning t_DS would disconnect everything and Definition 1
requires it).

O(n log n) overall: O(n) deletions, each with an O(log n) heap update.
Lemma 2 (tested): when local importance decreases monotonically along every
root-to-leaf path, the result is optimal — Paper OSs in DBLP satisfy this
and the paper's Figure 9(b) shows all methods at 100% there.
"""

from __future__ import annotations

import numpy as np

from repro.core.os_tree import FlatOS, SizeLResult, validate_l
from repro.reliability.deadline import CHECK_MASK, check_deadline
from repro.util.heaps import KeyedMinHeap


def bottom_up_size_l(flat: FlatOS, l: int) -> SizeLResult:  # noqa: E741
    """Compute a size-l OS by pruning the least-important leaves.

    The depth-< l filter (footnote 1) is an array prefix, eligible-child
    counts come from one vectorized subtraction, and leaf weights are
    list lookups; heap ties break by insertion order, which is ascending
    index order for the initial leaves.
    """
    validate_l(l)
    n_el = flat.eligible_count(l)
    parent = flat.parent[:n_el].tolist()
    weight = flat.weight[:n_el].tolist()
    child_lo, child_hi = flat.eligible_child_bounds(l)
    child_count = (child_hi - child_lo).tolist()

    heap: KeyedMinHeap[int] = KeyedMinHeap()
    for leaf, count in enumerate(child_count):
        if count == 0 and leaf != 0:  # the root is never pushed
            heap.push(leaf, weight[leaf])

    alive = np.ones(n_el, dtype=bool)
    alive_count = n_el
    dequeues = 0
    enqueues = len(heap)
    while alive_count > l:
        index, _score = heap.pop()
        dequeues += 1
        if dequeues & CHECK_MASK == 0:
            check_deadline()
        alive[index] = False
        alive_count -= 1
        p = parent[index]  # the root is never popped, so p >= 0
        child_count[p] -= 1
        if child_count[p] == 0 and p != 0:
            heap.push(p, weight[p])
            enqueues += 1

    selected = {int(i) for i in np.nonzero(alive)[0]}
    summary = flat.materialise_subset(selected)
    return SizeLResult(
        summary=summary,
        selected_uids=selected,
        importance=summary.total_importance(),
        algorithm="bottom_up",
        l=l,
        stats={"heap_dequeues": dequeues, "heap_enqueues": enqueues},
    )
