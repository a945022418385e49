"""Approximation-quality experiments — Figure 9.

For a set of OSs (the paper uses 10 random OSs per G_DS) and every l, each
greedy method's summary importance is divided by the optimal importance
(DP on the complete OS).  Methods run both on the complete OS and on the
prelim-l OS, giving the four series of each Figure-9 panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.bottom_up import bottom_up_size_l
from repro.core.dp import optimal_size_l
from repro.core.os_tree import FlatOS, SizeLResult
from repro.core.top_path import top_path_size_l

SizeLAlgorithm = Callable[[FlatOS, int], SizeLResult]

DEFAULT_METHODS: dict[str, SizeLAlgorithm] = {
    "bottom_up": bottom_up_size_l,
    "top_path": top_path_size_l,
}


@dataclass(frozen=True)
class QualityRow:
    """One point of a Figure-9 series (quality as a percentage)."""

    method: str
    source: str  # "complete" | "prelim"
    l: int  # noqa: E741
    quality: float
    n_observations: int


def quality_experiment(
    pairs: list[tuple[FlatOS, FlatOS]],
    l_values: list[int],
    methods: dict[str, SizeLAlgorithm] | None = None,
) -> list[QualityRow]:
    """Run the Figure-9 protocol over (complete OS, prelim-l OS) pairs.

    ``pairs`` supplies, per Data Subject, the complete OS and a prelim OS
    (callers generate the prelim with the *largest* l in ``l_values`` so a
    single prelim serves every l; the paper regenerates per l — both are
    valid since prelim-l′ ⊇ top-l for l ≤ l′ under Definition 2's heap).
    The optimal reference is always DP on the *complete* OS.
    """
    methods = methods or DEFAULT_METHODS
    ratios: dict[tuple[str, str, int], list[float]] = {}
    for complete, prelim in pairs:
        for l in l_values:  # noqa: E741
            optimum = optimal_size_l(complete, l).importance
            for method_name, algorithm in methods.items():
                for source_name, tree in (("complete", complete), ("prelim", prelim)):
                    achieved = algorithm(tree, l).importance
                    ratio = 100.0 if optimum == 0 else 100.0 * achieved / optimum
                    ratios.setdefault((method_name, source_name, l), []).append(ratio)
    rows = [
        QualityRow(
            method=method_name,
            source=source_name,
            l=l,
            quality=sum(values) / len(values),
            n_observations=len(values),
        )
        for (method_name, source_name, l), values in ratios.items()
    ]
    rows.sort(key=lambda r: (r.method, r.source, r.l))
    return rows
