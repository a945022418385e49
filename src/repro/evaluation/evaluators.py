"""Simulated human evaluators for the effectiveness experiments.

The paper measured effectiveness with human judges: eleven DBLP authors
"sized-l" their own OSs, and eight professors sized 16 random TPC-H OSs
(Section 6.1).  Humans are not available offline, so each judge is simulated
as a *noisy oracle* (DESIGN.md §6):

* the judge's private importance for a tuple is the reference score (the
  default G_A1-d1 ranking) perturbed log-normally — judges broadly agree
  with authority flow but not exactly;
* for small l the judge over-weights 1st-level neighbours, reflecting the
  paper's own observation that "evaluators first selected important Paper
  tuples" and only added co-authors/years/conferences "in summaries of
  larger sizes (l ≥ 10)";
* the judge's gold summary is the *optimal* (DP) size-l OS under their
  private weights — judges are consistent with their own preferences.

Noise is keyed by (seed, evaluator, table, row), so a judge scores the same
tuple identically wherever it occurs — across OSs and across occurrences.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.dp import optimal_size_l
from repro.core.os_tree import FlatOS
from repro.ranking.store import ImportanceStore


def reweight(flat: FlatOS, weight: Sequence[float] | np.ndarray) -> FlatOS:
    """*flat* with its weight column replaced by *weight* (one per node).

    The structure columns are shared, so node indices — and therefore
    selections — map 1:1 onto the original tree.  Used both by the
    evaluators (private weights) and the effectiveness driver (weights
    under each G_A setting).
    """
    return FlatOS(
        parent=flat.parent,
        depth=flat.depth,
        gds_node_id=flat.gds_node_id,
        row_id=flat.row_id,
        weight=np.asarray(weight, dtype=np.float64),
        gds=flat.gds,
        db=flat.db,
        kind=flat.kind,
    )


def local_weights(flat: FlatOS, store: ImportanceStore) -> np.ndarray:
    """Equation 3 under *store* for every node of *flat*: Im(t_i) · Af(t_i)."""
    weight = np.empty(flat.size, dtype=np.float64)
    for node in flat.gds.nodes():
        mask = flat.gds_node_id == node.node_id
        if mask.any():
            weight[mask] = store.local_importance_many(node, flat.row_id[mask])
    return weight


@dataclass
class EvaluatorConfig:
    """Noise model knobs.

    ``noise_sigma`` is the log-normal disagreement between a judge and the
    reference ranking; ``depth1_bias`` is the small-l preference for
    1st-level neighbours (multiplier ``1 + depth1_bias / l`` at depth 1).
    """

    noise_sigma: float = 0.35
    depth1_bias: float = 2.5
    seed: int = 101


class SimulatedEvaluator:
    """One simulated judge."""

    def __init__(
        self,
        evaluator_id: int,
        reference: ImportanceStore,
        config: EvaluatorConfig | None = None,
    ) -> None:
        self.evaluator_id = evaluator_id
        self.reference = reference
        self.config = config or EvaluatorConfig()

    # ------------------------------------------------------------------ #
    # Private scores
    # ------------------------------------------------------------------ #
    def _noise_factor(self, table: str, row_id: int) -> float:
        """Deterministic log-normal factor keyed by (seed, judge, tuple)."""
        digest = hashlib.sha256(
            f"{self.config.seed}|{self.evaluator_id}|{table}|{row_id}".encode()
        ).digest()
        # Two uniform draws → one standard normal (Box-Muller).
        u1 = (int.from_bytes(digest[:8], "big") + 1) / (2**64 + 2)
        u2 = int.from_bytes(digest[8:16], "big") / 2**64
        normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return float(np.exp(self.config.noise_sigma * normal))

    def private_importance(self, table: str, row_id: int) -> float:
        """The judge's private global importance for one tuple."""
        return self.reference.importance(table, row_id) * self._noise_factor(
            table, row_id
        )

    def private_weights(self, flat: FlatOS, l: int) -> list[float]:  # noqa: E741
        """Private local importances, including the small-l depth-1 bias."""
        weights: list[float] = []
        for index, (row_id, depth) in enumerate(
            zip(flat.row_id.tolist(), flat.depth.tolist())
        ):
            gds_node = flat.gds_node(index)
            weight = self.private_importance(gds_node.table, row_id) * gds_node.affinity
            if depth == 1:
                weight *= 1.0 + self.config.depth1_bias / l
            weights.append(weight)
        return weights

    # ------------------------------------------------------------------ #
    # Gold summaries
    # ------------------------------------------------------------------ #
    def gold_selection(self, flat: FlatOS, l: int) -> set[int]:  # noqa: E741
        """The judge's own size-l OS (DP-optimal under private weights)."""
        personal = reweight(flat, self.private_weights(flat, l))
        return optimal_size_l(personal, l).selected_uids


def make_panel(
    n_evaluators: int,
    reference: ImportanceStore,
    config: EvaluatorConfig | None = None,
) -> list[SimulatedEvaluator]:
    """A panel of judges (11 for DBLP, 8 for TPC-H in the paper)."""
    return [
        SimulatedEvaluator(evaluator_id, reference, config)
        for evaluator_id in range(n_evaluators)
    ]
