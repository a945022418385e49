"""Word-budget summaries (Section 7 future work, implemented).

The paper: "the selection of an appropriate value for l is an interesting
problem; a natural approach is to select l based on the amount of attributes
or words it will result, e.g. 20 attributes or 50 words."

:func:`word_budget_summary` reformulates size-l selection under a rendered
word budget: it finds the largest l whose size-l OS renders within the
budget (binary search over l, reusing any of the size-l algorithms), then
returns that summary.  This keeps Definition 1's connectivity semantics
while budgeting what the user actually sees.
"""

from __future__ import annotations

from typing import Callable

from repro.core.os_tree import FlatOS, SizeLResult
from repro.core.top_path import top_path_size_l
from repro.errors import SummaryError

SizeLAlgorithm = Callable[[FlatOS, int], SizeLResult]


def word_budget_summary(
    os_tree: FlatOS,
    word_budget: int,
    algorithm: SizeLAlgorithm = top_path_size_l,
) -> SizeLResult:
    """Largest-l summary whose rendered word count fits *word_budget*.

    Note that summary word count is not strictly monotone in l for greedy
    algorithms (different l may select different branches), so the binary
    search treats the algorithm as a black box and verifies the final
    candidate; the root-only summary is the fallback when even l = 1
    exceeds the budget.
    """
    if word_budget < 1:
        raise SummaryError(f"word budget must be >= 1, got {word_budget}")
    if os_tree.db is None:
        raise SummaryError("word-budget summaries need a database for rendering")

    low, high = 1, os_tree.size
    best: SizeLResult | None = None
    while low <= high:
        mid = (low + high) // 2
        candidate = algorithm(os_tree, mid)
        if candidate.summary.word_count() <= word_budget:
            if best is None or candidate.size > best.size:
                best = candidate
            low = mid + 1
        else:
            high = mid - 1
    if best is None:
        # Even a single tuple busts the budget; return the root-only summary
        # (a stand-alone OS must contain t_DS, so this is the minimum).
        best = algorithm(os_tree, 1)
    best.stats["word_budget"] = word_budget
    best.stats["word_count"] = best.summary.word_count()
    return best
