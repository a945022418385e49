"""Ranking of OS result sets (Section 7 future work, implemented).

The paper's conclusion names "the combined size-l and top-k ranking of OSs"
as future work.  Two rankers are provided:

* :func:`rank_data_subjects` — order matching Data Subjects by global
  importance Im(t_DS) (the baseline ordering the OS paradigm uses);
* :func:`rank_by_summary_importance` — the combined ranking: compute each
  DS's size-l OS and order by its importance Im(S), so a DS whose *summary*
  is rich (important neighbourhood) can outrank a DS whose root tuple alone
  is important.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.os_tree import SizeLResult
from repro.search.keyword import DataSubjectMatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import SizeLEngine
    from repro.core.options import QueryOptions


def rank_data_subjects(
    matches: list[DataSubjectMatch], k: int | None = None
) -> list[DataSubjectMatch]:
    """Order DS matches by global importance (descending); keep top-k."""
    ordered = sorted(matches, key=lambda m: (-m.importance, m.table, m.row_id))
    return ordered if k is None else ordered[:k]


def rank_by_summary_importance(
    engine: "SizeLEngine",
    matches: list[DataSubjectMatch],
    options: "QueryOptions",
    k: int | None = None,
) -> list[tuple[DataSubjectMatch, SizeLResult]]:
    """Combined size-l + top-k ranking: order DSs by their size-l OS's Im(S).

    Computes a size-l OS per match under *options* (uncached, through
    ``engine.run``) and sorts by summary importance.  With ``k`` set, only
    the k best pairs are returned (all summaries are still computed; a
    thresholded early-termination scheme is a further optimisation the
    paper leaves open).
    """
    scored = [
        (match, engine.run(match.table, match.row_id, options)) for match in matches
    ]
    scored.sort(key=lambda pair: (-pair[1].importance, pair[0].table, pair[0].row_id))
    return scored if k is None else scored[:k]
