"""Effectiveness experiments — Figure 8 and the Section 6.1 in-text results.

Effectiveness is "the average percentage of the tuples that exist both in
the evaluators' size-l OSs and the computed size-l OS" — recall and
precision coincide because both summaries have size l.

The driver takes one complete OS per Data Subject, a set of G_A settings
(name → ImportanceStore), and a judge panel; for every (l, setting) it
computes the size-l OS under that setting's scores and averages the overlap
with each judge's gold summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.dp import optimal_size_l
from repro.core.os_tree import FlatOS, SizeLResult
from repro.evaluation.evaluators import SimulatedEvaluator, local_weights, reweight
from repro.ranking.store import ImportanceStore

SizeLAlgorithm = Callable[[FlatOS, int], SizeLResult]


@dataclass(frozen=True)
class EffectivenessRow:
    """One point of a Figure-8 series."""

    setting: str
    l: int  # noqa: E741
    effectiveness: float  # percentage in [0, 100]
    n_observations: int


def _overlap(computed: set[int], gold: set[int], l: int) -> float:  # noqa: E741
    return 100.0 * len(computed & gold) / l


def effectiveness_experiment(
    os_trees: list[FlatOS],
    settings: dict[str, ImportanceStore],
    evaluators: list[SimulatedEvaluator],
    l_values: list[int],
    algorithm: SizeLAlgorithm = optimal_size_l,
) -> list[EffectivenessRow]:
    """Run the Figure-8 protocol.

    ``os_trees`` carry reference weights; for each setting the tree is
    re-weighted with that setting's scores before the size-l algorithm runs
    (the OS *structure* does not depend on the setting — only tuple scores
    do).  Judges' gold summaries are computed once per (tree, l) and reused
    across settings.
    """
    rows: list[EffectivenessRow] = []
    gold: dict[tuple[int, int, int], set[int]] = {}
    for tree_idx, tree in enumerate(os_trees):
        for l in l_values:  # noqa: E741
            for judge in evaluators:
                gold[(tree_idx, l, judge.evaluator_id)] = judge.gold_selection(tree, l)

    for setting_name, store in settings.items():
        for l in l_values:  # noqa: E741
            overlaps: list[float] = []
            for tree_idx, tree in enumerate(os_trees):
                weighted = reweight(tree, local_weights(tree, store))
                computed = algorithm(weighted, l).selected_uids
                for judge in evaluators:
                    overlaps.append(
                        _overlap(computed, gold[(tree_idx, l, judge.evaluator_id)], l)
                    )
            rows.append(
                EffectivenessRow(
                    setting=setting_name,
                    l=l,
                    effectiveness=sum(overlaps) / len(overlaps),
                    n_observations=len(overlaps),
                )
            )
    return rows


def greedy_effectiveness_impact(
    os_trees: list[FlatOS],
    store: ImportanceStore,
    evaluators: list[SimulatedEvaluator],
    l_values: list[int],
    algorithms: dict[str, SizeLAlgorithm],
) -> list[EffectivenessRow]:
    """Section 6.1 in-text: effectiveness impact of the greedy algorithms.

    The paper reports Update Top-Path-l matches the optimal's effectiveness
    on Author OSs while Bottom-Up loses 2-10%; this driver reproduces that
    comparison under one (default) setting for any set of algorithms.
    """
    rows: list[EffectivenessRow] = []
    for algo_name, algorithm in algorithms.items():
        rows.extend(
            EffectivenessRow(
                setting=algo_name,
                l=row.l,
                effectiveness=row.effectiveness,
                n_observations=row.n_observations,
            )
            for row in effectiveness_experiment(
                os_trees, {algo_name: store}, evaluators, l_values, algorithm
            )
        )
    return rows
