"""The Google-Desktop comparative baseline (Section 6.1).

The paper stored each OS as an HTML file, queried Google Desktop, and
inspected the returned snippet: "Google snippets contain a small amount of
words from the beginning of the file ... and the first few tuples (up to
three) from the OS (note that the order of nodes in an OS is random)".
The finding: static document snippets recover 0 (exceptionally 1) of the
tuples a human picked for the size-5 OS.

:func:`static_snippet` models exactly that behaviour: the t_DS header line
plus the first up-to-``k`` tuples of the OS under a seeded random node
order.  :func:`snippet_overlap_experiment` counts overlap with each judge's
gold size-5 summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.os_tree import FlatOS
from repro.evaluation.evaluators import SimulatedEvaluator
from repro.util.rng import derive_rng


def static_snippet(os_tree: FlatOS, k: int = 3, seed: int = 0) -> set[int]:
    """Node indices a static document snippet would surface.

    The root (the file's header: "Search for Christos Faloutsos ...") is
    always shown; the body contributes the first ``k`` tuples of the OS in
    a seeded random serialisation order — document snippets know nothing
    about tuple importance or relational structure.
    """
    rng = derive_rng(seed, "snippet", 0, os_tree.size)  # the root is index 0
    body = list(range(1, os_tree.size))
    rng.shuffle(body)
    return {0} | set(body[:k])


@dataclass(frozen=True)
class SnippetOverlapRow:
    """Overlap of the static snippet with one judge's gold size-5 OS."""

    tree_index: int
    evaluator_id: int
    overlap_tuples: int


def snippet_overlap_experiment(
    os_trees: list[FlatOS],
    evaluators: list[SimulatedEvaluator],
    l: int = 5,  # noqa: E741
    k: int = 3,
    seed: int = 0,
) -> list[SnippetOverlapRow]:
    """Count snippet∩gold tuples per (OS, judge) — the paper's "less austere"
    comparison (the snippet holds only up to three tuples, so overlap is
    counted in tuples rather than as a percentage of l)."""
    rows: list[SnippetOverlapRow] = []
    for tree_idx, tree in enumerate(os_trees):
        snippet = static_snippet(tree, k=k, seed=seed)
        for judge in evaluators:
            gold = judge.gold_selection(tree, l)
            # The root is trivially shared (both always include t_DS); the
            # paper counts informative tuples, so exclude it.
            overlap = len((snippet & gold) - {0})
            rows.append(
                SnippetOverlapRow(
                    tree_index=tree_idx,
                    evaluator_id=judge.evaluator_id,
                    overlap_tuples=overlap,
                )
            )
    return rows
