"""Analysis of the space of optimal size-l OSs (Section 7 future work).

The paper's conclusion observes: "in the general case, optimal size-l OSs
for different l could be very different.  This prevents the incremental
computation of a size-l OS from the optimal size-(l−1) OS ... In the
future, we plan to experimentally analyze the space of optimal size-l OSs
and identify potential similarities among them that could assist their
pre-computation and compression."

This module performs that analysis:

* :func:`optimal_family` — the optimal size-l OS for every l in a range
  (computed in one DP-per-l pass);
* :func:`nesting_profile` — where the chain S*_1 ⊆ S*_2 ⊆ ... breaks
  (every break is a certificate that incremental computation fails);
* :func:`stability_profile` — Jaccard similarity between consecutive
  optima, plus the *core* (tuples present in every optimum) and *union*
  sizes, which bound what a pre-computation cache could share.

The empirical finding (see ``bench_ablations.py`` and the unit tests)
matches the paper's intuition: optima are usually — but not always —
nested, so a shared-prefix cache would work for most l yet cannot be
relied upon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dp import optimal_size_l
from repro.core.os_tree import FlatOS, validate_l


def optimal_family(
    os_tree: FlatOS, max_l: int, min_l: int = 1
) -> dict[int, set[int]]:
    """The optimal size-l selection for every l in [min_l, max_l].

    Note this is the straightforward per-l DP; the point of the analysis is
    to find out whether anything smarter could be shared across l.
    """
    validate_l(min_l)
    validate_l(max_l)
    if min_l > max_l:
        raise ValueError(f"min_l {min_l} exceeds max_l {max_l}")
    return {
        l: optimal_size_l(os_tree, l).selected_uids  # noqa: E741
        for l in range(min_l, max_l + 1)
    }


@dataclass(frozen=True)
class NestingProfile:
    """Where (and how often) the optimal chain fails to be nested."""

    checked_pairs: int
    breaks: list[int]  # l values where S*_{l-1} is NOT a subset of S*_l

    @property
    def nested_fraction(self) -> float:
        if self.checked_pairs == 0:
            return 1.0
        return 1.0 - len(self.breaks) / self.checked_pairs

    @property
    def is_fully_nested(self) -> bool:
        return not self.breaks


def nesting_profile(family: dict[int, set[int]]) -> NestingProfile:
    """Check S*_{l-1} ⊆ S*_l for consecutive l present in *family*."""
    ls = sorted(family)
    breaks: list[int] = []
    checked = 0
    for prev_l, next_l in zip(ls, ls[1:]):
        if next_l != prev_l + 1:
            continue
        checked += 1
        if not family[prev_l] <= family[next_l]:
            breaks.append(next_l)
    return NestingProfile(checked_pairs=checked, breaks=breaks)


@dataclass(frozen=True)
class StabilityRow:
    """Similarity between the optima at l-1 and l."""

    l: int  # noqa: E741
    jaccard: float
    carried_over: int  # |S*_{l-1} ∩ S*_l|
    replaced: int  # |S*_{l-1} \ S*_l|


@dataclass(frozen=True)
class StabilityProfile:
    rows: list[StabilityRow]
    core_size: int  # tuples in every optimum of the family
    union_size: int  # tuples in any optimum of the family

    @property
    def mean_jaccard(self) -> float:
        if not self.rows:
            return 1.0
        return sum(r.jaccard for r in self.rows) / len(self.rows)


def stability_profile(family: dict[int, set[int]]) -> StabilityProfile:
    """Jaccard similarity of consecutive optima + core/union sizes.

    ``core`` is what a pre-computation cache could serve for *every* l;
    ``union`` bounds the storage a full per-l cache would need (the paper's
    "compression" question: union_size ≪ Σ_l l means heavy overlap).
    """
    ls = sorted(family)
    rows: list[StabilityRow] = []
    for prev_l, next_l in zip(ls, ls[1:]):
        if next_l != prev_l + 1:
            continue
        prev_set, next_set = family[prev_l], family[next_l]
        intersection = len(prev_set & next_set)
        union = len(prev_set | next_set)
        rows.append(
            StabilityRow(
                l=next_l,
                jaccard=intersection / union if union else 1.0,
                carried_over=intersection,
                replaced=len(prev_set - next_set),
            )
        )
    core: set[int] = set.intersection(*family.values()) if family else set()
    total: set[int] = set.union(*family.values()) if family else set()
    return StabilityProfile(rows=rows, core_size=len(core), union_size=len(total))


def incremental_failure_example(
    os_tree: FlatOS, max_l: int
) -> tuple[int, set[int], set[int]] | None:
    """Find a concrete (l, S*_{l-1}, S*_l) witnessing a nesting break.

    Returns None when the family is fully nested up to *max_l* — useful in
    tests and for the paper's observation that breaks exist "in the general
    case" but are not the norm.
    """
    family = optimal_family(os_tree, max_l)
    for l in range(2, max_l + 1):  # noqa: E741
        if not family[l - 1] <= family[l]:
            return l, family[l - 1], family[l]
    return None
