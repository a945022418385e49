"""Algorithm 1: the optimal size-l OS via dynamic programming.

For every node v of the OS (bottom-up) we compute ``S_{v,i}``: the best
connected subtree rooted at v with exactly i nodes, for i up to
min(l − d(v), |subtree(v)|) — nodes deeper than l − 1 cannot belong to any
connected size-l OS containing the root (the complete root-to-v path must be
included), exactly the paper's depth argument.

The paper describes the per-node step as "examine all possible combinations
of v's children and number of nodes to be selected from their subtrees".
Enumerating compositions literally is exponential in the child count; the
equivalent polynomial formulation folds children in one at a time with a
knapsack merge (``m_k(j)`` = best weight using j nodes from the first k
child subtrees).  The merge explores the same combination space, so
Lemma 1's optimality proof carries over unchanged — and
:mod:`repro.core.brute_force` verifies it in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.os_tree import FlatOS, SizeLResult, validate_l
from repro.reliability.deadline import CHECK_MASK, check_deadline

NEG_INF = float("-inf")

#: Budget-axis width above which the knapsack merge switches from scalar
#: Python (faster for the tiny tables typical of l <= ~50) to numpy slices.
_VECTOR_MERGE_MIN_CAP = 64


def optimal_size_l(flat: FlatOS, l: int) -> SizeLResult:  # noqa: E741
    """Compute the optimal size-l OS of *flat* (Lemma 1: exact).

    When the OS has at most l reachable nodes (after the depth-< l filter),
    all of them are returned — a size-min(l, n) OS, matching how the paper's
    experiments handle small OSs ("the smaller the OS is in comparison to l
    the more accurate our algorithms are"; at |OS| ≤ l every method returns
    the whole OS).

    Children are folded in ascending index order with strictly-better-only
    updates.  All tree-shaped precomputation (eligible prefix, subtree
    sizes, child ranges, caps) is vectorized; the per-node knapsack merge
    runs over flat Python lists for small budgets — numpy call overhead
    dominates below :data:`_VECTOR_MERGE_MIN_CAP` cells — and switches to
    vectorized slice updates for large ones.
    """
    validate_l(l)
    n_el = flat.eligible_count(l)  # eligible (depth < l) nodes are a prefix

    if n_el <= l:
        selected = set(range(n_el))
        summary = flat.materialise_subset(selected)
        return SizeLResult(
            summary=summary,
            selected_uids=selected,
            importance=summary.total_importance(),
            algorithm="dp",
            l=l,
            stats={"cell_updates": 0, "eligible_nodes": n_el},
        )

    child_lo_arr, child_hi_arr = flat.eligible_child_bounds(l)
    child_lo = child_lo_arr.tolist()
    child_hi = child_hi_arr.tolist()
    sizes = flat.eligible_subtree_sizes(l)
    caps = np.minimum(l - flat.depth[:n_el].astype(np.int64), sizes).tolist()
    weights = flat.weight[:n_el].tolist()
    # best[i][t]: best weight of a t-node subtree rooted at i (index 0 = -inf)
    best: list[list[float]] = [None] * n_el  # type: ignore[list-item]
    choices: list[list[list[int]]] = [None] * n_el  # type: ignore[list-item]
    cell_updates = 0

    for i in range(n_el - 1, -1, -1):
        if i & CHECK_MASK == 0:
            check_deadline()  # coarse: outer per-node loop only, never the merge
        lo, hi = child_lo[i], child_hi[i]
        if lo == hi:  # leaf: cap is 1, no merge
            best[i] = [NEG_INF, weights[i]]
            choices[i] = []
            continue
        cap = caps[i]
        # m[j]: best weight using exactly j nodes from merged child subtrees.
        m = [NEG_INF] * cap
        m[0] = 0.0
        allocations: list[list[int]] = []
        use_vector = cap >= _VECTOR_MERGE_MIN_CAP
        for c in range(lo, hi):
            child_best = best[c]
            child_cap = len(child_best) - 1
            top_t = min(child_cap, cap - 1)
            if use_vector:
                m_arr = np.array(m)
                new_m = m_arr.copy()  # t = 0: take nothing from this child
                alloc_arr = np.zeros(cap, dtype=np.int64)
                cb = np.array(child_best)
                for t in range(1, top_t + 1):
                    candidates = m_arr[: cap - t] + cb[t]
                    cell_updates += int(np.count_nonzero(m_arr[: cap - t] > NEG_INF))
                    better = candidates > new_m[t:]
                    new_m[t:][better] = candidates[better]
                    alloc_arr[t:][better] = t
                m = new_m.tolist()
                allocations.append(alloc_arr.tolist())
                continue
            new_m = [NEG_INF] * cap
            alloc = [0] * cap
            for j in range(cap):
                best_val = m[j]  # t = 0: take nothing from this child
                best_t = 0
                for t in range(1, min(j, child_cap) + 1):
                    prev = m[j - t]
                    if prev == NEG_INF:
                        continue
                    val = prev + child_best[t]
                    cell_updates += 1
                    if val > best_val:
                        best_val = val
                        best_t = t
                new_m[j] = best_val
                alloc[j] = best_t
            m = new_m
            allocations.append(alloc)
        w = weights[i]
        best[i] = [NEG_INF] + [
            (w + m[k]) if m[k] != NEG_INF else NEG_INF for k in range(cap)
        ]
        choices[i] = allocations

    target = min(l, int(sizes[0]))
    root_best = best[0]
    if target >= len(root_best) or root_best[target] == NEG_INF:
        # Cannot happen on a connected tree, but guard against misuse.
        target = max(t for t in range(1, len(root_best)) if root_best[t] != NEG_INF)

    selected: set[int] = set()

    def reconstruct(index: int, count: int) -> None:
        selected.add(index)
        remaining = count - 1
        allocations = choices[index]
        first_child = int(child_lo[index])
        for k in range(len(allocations) - 1, -1, -1):
            taken = int(allocations[k][remaining])
            if taken > 0:
                reconstruct(first_child + k, taken)
            remaining -= taken
        assert remaining == 0, "DP reconstruction did not consume its budget"

    reconstruct(0, target)
    summary = flat.materialise_subset(selected)
    importance = summary.total_importance()
    assert abs(importance - root_best[target]) < 1e-6 * max(1.0, abs(importance)), (
        "DP table value disagrees with reconstructed subtree weight"
    )
    return SizeLResult(
        summary=summary,
        selected_uids=selected,
        importance=importance,
        algorithm="dp",
        l=l,
        stats={"cell_updates": cell_updates, "eligible_nodes": n_el},
    )
