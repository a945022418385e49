"""Literal exponential optimum — the test oracle for Lemma 1.

Enumerates *every* candidate size-l OS (Definition 1: connected subsets of l
nodes containing the root) exactly as the paper's brute-force strawman
describes, and returns the best.  Usable only on small OSs; the test suite
runs it against the DP on hypothesis-generated random trees.
"""

from __future__ import annotations

from repro.core.os_tree import FlatOS, OSNode, SizeLResult, validate_l


def _enumerate_rooted(node: OSNode, budget: int, eligible: set[int]) -> list[set[int]]:
    """All connected subtrees rooted at *node* with exactly *budget* nodes."""
    if budget <= 0:
        return []
    if budget == 1:
        return [{node.uid}]
    children = [c for c in node.children if c.uid in eligible]
    results: list[set[int]] = []

    def distribute(idx: int, remaining: int, chosen: set[int]) -> None:
        if remaining == 0:
            results.append({node.uid} | chosen)
            return
        if idx >= len(children):
            return
        # Option: skip this child entirely.
        distribute(idx + 1, remaining, chosen)
        # Option: allocate t nodes to this child's subtree.
        for t in range(1, remaining + 1):
            for sub in _enumerate_rooted(children[idx], t, eligible):
                distribute(idx + 1, remaining - t, chosen | sub)

    distribute(0, budget - 1, set())
    return results


def brute_force_size_l(flat: FlatOS, l: int) -> SizeLResult:  # noqa: E741
    """Exhaustively find an optimal size-l OS (exponential; tests only).

    Deliberately independent of the production algorithms: it walks the
    :class:`OSNode` view of *flat* (uid == index) rather than its arrays.
    """
    validate_l(l)
    eligible = set(range(flat.eligible_count(l)))
    target = min(l, len(eligible))
    candidates = _enumerate_rooted(flat.to_object_summary().root, target, eligible)
    weights = flat.weight.tolist()
    best_set: set[int] | None = None
    best_weight = float("-inf")
    for candidate in candidates:
        weight = sum(weights[uid] for uid in candidate)
        if weight > best_weight:
            best_weight = weight
            best_set = candidate
    assert best_set is not None, "a connected tree always has a BFS-prefix candidate"
    summary = flat.materialise_subset(best_set)
    return SizeLResult(
        summary=summary,
        selected_uids=best_set,
        importance=summary.total_importance(),
        algorithm="brute_force",
        l=l,
        stats={"candidates": len(candidates)},
    )
