"""Algorithm 3: the Update Top-Path-l greedy heuristic.

Repeatedly selects the path p_i with the largest *average importance per
tuple* AI(p_i) from the current forest, adds it to the size-l OS, and turns
the children of selected nodes into roots of new trees whose AI values no
longer include the removed prefix.  Selecting whole paths (rather than
single tuples) lets important deep tuples pull in their low-importance
connectors, which is why this heuristic empirically beats Bottom-Up Pruning
when monotonicity fails (Section 6.2).

Two variants are implemented:

* ``variant="naive"`` (default, reference semantics): when a new tree root
  appears, its entire subtree is rescanned to find the node with the best
  AI.  Worst case O(n·l).
* ``variant="optimized"``: the paper's s(v) optimisation — the best-AI node
  of each subtree is precomputed once; when v becomes a root only s(v)'s AI
  is recomputed.  The paper argues the argmax within a subtree is unchanged
  by prefix removal; that claim is heuristic (averages shift differently
  for different path lengths), so this variant may deviate — the ablation
  bench quantifies by how much while showing the speed-up.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.os_tree import FlatOS, SizeLResult, validate_l
from repro.errors import SummaryError
from repro.reliability.deadline import check_deadline
from repro.util.arrays import gather_ranges

#: Eligible-subtree size from which a naive-variant rescan switches from a
#: scalar Python walk to one vectorized gather per level (below it, numpy
#: call overhead costs more than it saves).
_VECTOR_SCAN_MIN_NODES = 256


def top_path_size_l(
    flat: FlatOS,
    l: int,  # noqa: E741
    variant: str = "naive",
) -> SizeLResult:
    """Compute a size-l OS by repeatedly adding the best-average path.

    Prefix sums arrive from one level-synchronous sweep, large subtree
    rescans are vectorized gathers over contiguous child ranges, and the
    active trees wait in a heap keyed by their best path.  Ties — between
    nodes of one subtree and between active trees — go to the smallest
    index.
    """
    validate_l(l)
    if variant not in ("naive", "optimized"):
        raise SummaryError(f"unknown top-path variant: {variant!r}")
    n_el = flat.eligible_count(l)
    prefix_arr = flat.prefix_weights(limit=n_el)  # only the eligible prefix is read

    if n_el <= l:
        selected = set(range(n_el))
        summary = flat.materialise_subset(selected)
        return SizeLResult(
            summary=summary,
            selected_uids=selected,
            importance=summary.total_importance(),
            algorithm=f"top_path[{variant}]",
            l=l,
            stats={"paths_selected": 0, "nodes_rescanned": 0},
        )

    child_lo_arr, child_hi_arr = flat.eligible_child_bounds(l)
    # Scalar lookups run over plain lists: numpy scalar indexing costs more
    # than it saves for the many tiny subtrees this loop inspects.
    # Eligible-subtree sizes pick the scan strategy (scalar vs vector) below.
    subtree_size = flat.eligible_subtree_sizes(l).tolist()
    child_lo = child_lo_arr.tolist()
    child_hi = child_hi_arr.tolist()
    parent = flat.parent[:n_el].tolist()
    depth = flat.depth[:n_el].tolist()
    prefix = prefix_arr[:n_el].tolist()
    weight = flat.weight[:n_el].tolist()

    # s(v) precomputation for the optimized variant: best-AI node (w.r.t.
    # the *original* root) in each subtree, children folded in index order
    # with the same strict-better / smaller-index tie rule.
    best_in_subtree: list[int] = []
    if variant == "optimized":
        # above_root of the original root is 0, so AI(v) = prefix / (depth+1)
        ai0 = (prefix_arr[:n_el] / (np.asarray(depth) + 1.0)).tolist()
        best_in_subtree = list(range(n_el))
        for index in range(n_el - 1, -1, -1):
            best_index = index
            best_score = ai0[index]
            for c in range(child_lo[index], child_hi[index]):
                candidate = best_in_subtree[c]
                candidate_score = ai0[candidate]
                if candidate_score > best_score or (
                    candidate_score == best_score and candidate < best_index
                ):
                    best_index = candidate
                    best_score = candidate_score
            best_in_subtree[index] = best_index

    nodes_rescanned = 0

    def subtree_argmax_vector(root: int) -> tuple[int, float]:
        """One vectorized gather per level of *root*'s eligible subtree."""
        members = [np.array([root], dtype=np.int64)]
        frontier = members[0]
        while frontier.size:
            lo = child_lo_arr[frontier]
            _rep, frontier = gather_ranges(lo, child_hi_arr[frontier] - lo)
            if frontier.size:
                members.append(frontier)
        indices = np.concatenate(members)
        above_root = prefix[root] - weight[root]
        scores = (prefix_arr[indices] - above_root) / (
            flat.depth[indices] - depth[root] + 1
        )
        winner = np.lexsort((indices, -scores))[0]  # max AI, ties → min index
        return int(indices[winner]), float(scores[winner])

    def subtree_argmax(root: int) -> tuple[int, float]:
        """Scan *root*'s eligible subtree for the node with max AI."""
        nonlocal nodes_rescanned
        size = subtree_size[root]
        nodes_rescanned += size
        if size >= _VECTOR_SCAN_MIN_NODES:
            return subtree_argmax_vector(root)
        above_root = prefix[root] - weight[root]
        best_index, best_score = root, prefix[root] - above_root  # path length 1
        if size == 1:  # a leaf: the only path is the root itself
            return best_index, best_score
        base = depth[root] - 1  # a node's path length is depth[node] - base
        stack = list(range(child_lo[root], child_hi[root]))
        while stack:
            node = stack.pop()
            score = (prefix[node] - above_root) / (depth[node] - base)
            if score > best_score or (score == best_score and node < best_index):
                best_index = node
                best_score = score
            if child_lo[node] < child_hi[node]:
                stack.extend(range(child_lo[node], child_hi[node]))
        return best_index, best_score

    # Candidate trees, one per active root: (-best AI, best node, root).  The
    # heap minimum is the max-AI path, ties to the smallest best-node index
    # (the best nodes of two active trees never coincide: their subtrees
    # are disjoint).
    candidates: list[tuple[float, int, int]] = []

    def register_root(root: int) -> None:
        if variant == "optimized":
            best_index = best_in_subtree[root]
            above_root = prefix[root] - weight[root]
            score = (prefix[best_index] - above_root) / (
                depth[best_index] - depth[root] + 1
            )
        else:
            best_index, score = subtree_argmax(root)
        heapq.heappush(candidates, (-score, best_index, root))

    register_root(0)
    selected = set()
    paths_selected = 0

    while len(selected) < l:
        check_deadline()  # per selected path
        if not candidates:
            raise SummaryError("top-path ran out of candidate trees")  # pragma: no cover
        _score, best_index, winner_root = heapq.heappop(candidates)
        path: list[int] = []
        node = best_index
        while node >= winner_root:  # ancestors of best down to the tree root
            path.append(node)
            if node == winner_root:
                break
            node = parent[node]
        path.reverse()
        needed = l - len(selected)
        taken = path[:needed]  # "add first l - |size-l OS| nodes of p_i"
        selected.update(taken)
        paths_selected += 1
        if len(selected) >= l:
            break
        # Children of removed nodes become roots of new trees.
        for index in taken:
            for child in range(child_lo[index], child_hi[index]):
                if child not in selected:
                    register_root(child)

    summary = flat.materialise_subset(selected)
    return SizeLResult(
        summary=summary,
        selected_uids=selected,
        importance=summary.total_importance(),
        algorithm=f"top_path[{variant}]",
        l=l,
        stats={"paths_selected": paths_selected, "nodes_rescanned": nodes_rescanned},
    )
