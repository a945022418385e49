"""Node-based reference implementations: the oracles the FlatOS pipeline is
checked against.

These are the original one-``OSNode``-per-tuple generators (Algorithms 5
and 4) and size-l algorithm bodies (Algorithms 1-3), kept deliberately
naive and independent of the columnar code in :mod:`repro.core`: every
tree is a linked :class:`~repro.core.os_tree.ObjectSummary`, every walk
follows ``children``/``parent`` pointers, and tie-breaking goes by uid.
Because uids are assigned in BFS extraction order, a uid *is* the FlatOS
index of the same tuple occurrence, so trees and selections compare
directly (:func:`assert_same_tree`).

``benchmarks/bench_core_micro.py`` also times :func:`generate_os_nodes`
as the per-node yardstick of its generation-speedup gate.
"""

from __future__ import annotations

import math

from repro.core.os_tree import FlatOS, ObjectSummary, OSNode, SizeLResult, validate_l
from repro.core.prelim import PrelimStats
from repro.errors import SummaryError
from repro.schema_graph.gds import JunctionJoin
from repro.util.heaps import BoundedTopHeap, KeyedMinHeap

NEG_INF = float("-inf")


# --------------------------------------------------------------------- #
# Trees
# --------------------------------------------------------------------- #
def _origin_row(gds_child, parent: OSNode) -> int | None:
    """The row to exclude for co-author style joins (see JunctionJoin)."""
    join = gds_child.join
    if (
        isinstance(join, JunctionJoin)
        and join.exclude_origin
        and parent.parent is not None
        and parent.parent.table == join.target_table
    ):
        return parent.parent.row_id
    return None


def generate_os_nodes(
    tds_row_id, gds, backend, store, depth_limit=None, max_nodes=None
) -> ObjectSummary:
    """Algorithm 5 as a linked tree: one OSNode per extracted tuple."""
    root = OSNode(0, gds.root, tds_row_id, None, store.local_importance(gds.root, tds_row_id))
    queue = [root]
    cursor = 0
    next_uid = 1
    while cursor < len(queue):
        node = queue[cursor]
        cursor += 1
        if depth_limit is not None and node.depth >= depth_limit:
            continue
        for gds_child in node.gds.children:
            for row_id in backend.children(gds_child, node.row_id, _origin_row(gds_child, node)):
                row_id = int(row_id)
                child = OSNode(
                    next_uid, gds_child, row_id, node,
                    store.local_importance(gds_child, row_id),
                )
                next_uid += 1
                node.children.append(child)
                queue.append(child)
                if max_nodes is not None and next_uid > max_nodes:
                    raise SummaryError(f"OS exceeded max_nodes={max_nodes}")
    return ObjectSummary(root, db=backend.db, kind="complete")


def generate_prelim_os_nodes(
    tds_row_id, gds, backend, store, l, depth_limit=None  # noqa: E741
) -> tuple[ObjectSummary, PrelimStats]:
    """Algorithm 4 as a linked tree, with Avoidance Conditions 1 and 2."""
    validate_l(l)
    stats = PrelimStats()
    root_weight = store.local_importance(gds.root, tds_row_id)
    root = OSNode(0, gds.root, tds_row_id, None, root_weight)
    stats.extracted_tuples += 1
    top_l: BoundedTopHeap[int] = BoundedTopHeap(l)
    top_l.offer(root.uid, root_weight)
    queue = [root]
    cursor = 0
    next_uid = 1
    while cursor < len(queue):
        node = queue[cursor]
        cursor += 1
        if depth_limit is not None and node.depth >= depth_limit:
            continue
        for gds_child in node.gds.children:
            largest_l = top_l.threshold
            origin = _origin_row(gds_child, node)
            if largest_l >= gds_child.max_local and largest_l >= gds_child.mmax_local:
                stats.avoided_subtrees += 1
                continue
            if largest_l >= gds_child.mmax_local:
                rows = backend.children_top(gds_child, node.row_id, origin, store, largest_l, l)
                stats.limited_extractions += 1
            else:
                rows = backend.children(gds_child, node.row_id, origin)
                stats.full_extractions += 1
            for row_id in rows:
                row_id = int(row_id)
                weight = store.local_importance(gds_child, row_id)
                child = OSNode(next_uid, gds_child, row_id, node, weight)
                next_uid += 1
                node.children.append(child)
                queue.append(child)
                stats.extracted_tuples += 1
                if weight > top_l.threshold or not top_l.is_full:
                    top_l.offer(child.uid, weight)
    stats.top_l_uids = {uid for uid, _score in top_l.items()}
    return ObjectSummary(root, db=backend.db, kind="prelim"), stats


def assert_same_tree(flat: FlatOS, tree: ObjectSummary) -> None:
    """*flat* equals *tree* node for node (index == uid)."""
    assert flat.size == tree.size
    assert flat.kind == tree.kind
    for node in tree.nodes:
        i = node.uid
        assert int(flat.row_id[i]) == node.row_id
        assert int(flat.depth[i]) == node.depth
        assert int(flat.parent[i]) == (-1 if node.parent is None else node.parent.uid)
        assert flat.gds_node(i) is node.gds
        assert float(flat.weight[i]) == node.weight


def _materialise(tree: ObjectSummary, selected: set[int]) -> ObjectSummary:
    """The connected subset *selected* of *tree* as its own ObjectSummary."""
    clones: dict[int, OSNode] = {}
    for node in tree.nodes:  # BFS: parents first
        if node.uid not in selected:
            continue
        parent = None if node.parent is None else clones[node.parent.uid]
        clone = OSNode(node.uid, node.gds, node.row_id, parent, node.weight)
        if parent is not None:
            parent.children.append(clone)
        clones[node.uid] = clone
    assert set(clones) == selected, "selection is not a connected subtree"
    return ObjectSummary(clones[tree.root.uid], db=tree.db, kind="size-l")


def _result(tree, selected, algorithm, l) -> SizeLResult:  # noqa: E741
    summary = _materialise(tree, selected)
    return SizeLResult(
        summary=summary,
        selected_uids=selected,
        importance=summary.total_importance(),
        algorithm=algorithm,
        l=l,
    )


# --------------------------------------------------------------------- #
# Algorithm 1: DP
# --------------------------------------------------------------------- #
def optimal_size_l_nodes(tree: ObjectSummary, l: int) -> SizeLResult:  # noqa: E741
    validate_l(l)
    eligible = [node for node in tree.nodes if node.depth < l]
    eligible_uids = {node.uid for node in eligible}
    if len(eligible) <= l:
        return _result(tree, set(eligible_uids), "dp", l)
    sizes: dict[int, int] = {}
    for node in reversed(eligible):  # reversed BFS = post-order
        sizes[node.uid] = 1 + sum(
            sizes[c.uid] for c in node.children if c.uid in eligible_uids
        )
    best: dict[int, list[float]] = {}
    choices: dict[int, list[list[int]]] = {}
    kids: dict[int, list[OSNode]] = {}
    for node in reversed(eligible):
        cap = min(l - node.depth, sizes[node.uid])
        children = [c for c in node.children if c.uid in eligible_uids]
        kids[node.uid] = children
        m = [NEG_INF] * cap
        m[0] = 0.0
        allocations: list[list[int]] = []
        for child in children:
            child_best = best[child.uid]
            new_m = [NEG_INF] * cap
            alloc = [0] * cap
            for j in range(cap):
                best_val, best_t = m[j], 0
                for t in range(1, min(j, len(child_best) - 1) + 1):
                    if m[j - t] == NEG_INF:
                        continue
                    val = m[j - t] + child_best[t]
                    if val > best_val:
                        best_val, best_t = val, t
                new_m[j], alloc[j] = best_val, best_t
            m = new_m
            allocations.append(alloc)
        best[node.uid] = [NEG_INF] + [
            node.weight + m[i - 1] if m[i - 1] != NEG_INF else NEG_INF
            for i in range(1, cap + 1)
        ]
        choices[node.uid] = allocations

    selected: set[int] = set()

    def reconstruct(uid: int, count: int) -> None:
        selected.add(uid)
        remaining = count - 1
        for k in range(len(kids[uid]) - 1, -1, -1):
            taken = choices[uid][k][remaining]
            if taken > 0:
                reconstruct(kids[uid][k].uid, taken)
            remaining -= taken

    reconstruct(tree.root.uid, min(l, sizes[tree.root.uid]))
    return _result(tree, selected, "dp", l)


# --------------------------------------------------------------------- #
# Algorithm 2: Bottom-Up Pruning
# --------------------------------------------------------------------- #
def bottom_up_size_l_nodes(tree: ObjectSummary, l: int) -> SizeLResult:  # noqa: E741
    validate_l(l)
    alive = {node.uid for node in tree.nodes if node.depth < l}
    child_count = {
        node.uid: sum(1 for c in node.children if c.uid in alive)
        for node in tree.nodes
        if node.uid in alive
    }
    root_uid = tree.root.uid
    heap: KeyedMinHeap[int] = KeyedMinHeap()
    for node in tree.nodes:
        if node.uid in alive and child_count[node.uid] == 0 and node.uid != root_uid:
            heap.push(node.uid, node.weight)
    while len(alive) > l:
        uid, _score = heap.pop()
        alive.discard(uid)
        parent = tree.node(uid).parent
        child_count[parent.uid] -= 1
        if child_count[parent.uid] == 0 and parent.uid != root_uid:
            heap.push(parent.uid, parent.weight)
    return _result(tree, alive, "bottom_up", l)


# --------------------------------------------------------------------- #
# Algorithm 3: Update Top-Path-l
# --------------------------------------------------------------------- #
def top_path_size_l_nodes(
    tree: ObjectSummary, l: int, variant: str = "naive"  # noqa: E741
) -> SizeLResult:
    validate_l(l)
    eligible = {node.uid for node in tree.nodes if node.depth < l}
    prefix: dict[int, float] = {}
    for node in tree.nodes:  # BFS: parents first
        if node.uid in eligible:
            above = prefix[node.parent.uid] if node.parent is not None else 0.0
            prefix[node.uid] = above + node.weight
    if len(eligible) <= l:
        return _result(tree, set(eligible), f"top_path[{variant}]", l)

    def ai(node: OSNode, root: OSNode) -> float:
        above_root = prefix[root.uid] - root.weight
        return (prefix[node.uid] - above_root) / (node.depth - root.depth + 1)

    best_in_subtree: dict[int, int] = {}
    if variant == "optimized":
        for node in reversed(tree.nodes):
            if node.uid not in eligible:
                continue
            best_uid, best_score = node.uid, ai(node, tree.root)
            for child in node.children:
                if child.uid not in eligible:
                    continue
                candidate = best_in_subtree[child.uid]
                score = ai(tree.node(candidate), tree.root)
                if score > best_score or (score == best_score and candidate < best_uid):
                    best_uid, best_score = candidate, score
            best_in_subtree[node.uid] = best_uid

    def subtree_argmax(root: OSNode) -> tuple[int, float]:
        best_uid, best_score = root.uid, ai(root, root)
        stack = [root]
        while stack:
            node = stack.pop()
            score = ai(node, root)
            if score > best_score or (score == best_score and node.uid < best_uid):
                best_uid, best_score = node.uid, score
            stack.extend(c for c in node.children if c.uid in eligible)
        return best_uid, best_score

    active: dict[int, tuple[int, float]] = {}

    def register_root(root: OSNode) -> None:
        if variant == "optimized":
            best_uid = best_in_subtree[root.uid]
            active[root.uid] = (best_uid, ai(tree.node(best_uid), root))
        else:
            active[root.uid] = subtree_argmax(root)

    register_root(tree.root)
    selected: set[int] = set()
    while len(selected) < l:
        winner_uid = min(active, key=lambda uid: (-active[uid][1], active[uid][0]))
        best_uid, _score = active.pop(winner_uid)
        winner = tree.node(winner_uid)
        path = [
            node
            for node in tree.node(best_uid).path_from_root()
            if node.depth >= winner.depth
        ]
        taken = path[: l - len(selected)]
        selected.update(node.uid for node in taken)
        if len(selected) >= l:
            break
        for node in taken:
            for child in node.children:
                if child.uid in eligible and child.uid not in selected:
                    register_root(child)
    return _result(tree, selected, f"top_path[{variant}]", l)


#: (name, FlatOS algorithm name in the registry, node-based oracle)
ORACLE_ALGORITHMS = [
    ("dp", "dp", optimal_size_l_nodes),
    ("bottom_up", "bottom_up", bottom_up_size_l_nodes),
    ("top_path", "top_path", top_path_size_l_nodes),
    (
        "top_path_opt",
        "top_path_optimized",
        lambda tree, l: top_path_size_l_nodes(tree, l, variant="optimized"),  # noqa: E741
    ),
]


def assert_same_selection(flat_result: SizeLResult, oracle_result: SizeLResult) -> None:
    """Identical selected indices/uids and total importance."""
    assert flat_result.selected_uids == oracle_result.selected_uids
    assert math.isclose(flat_result.importance, oracle_result.importance, rel_tol=1e-9)
