"""Quickstart: keyword search to size-l Object Summaries in ~15 lines.

Builds a small synthetic DBLP database, opens a :class:`repro.Session`
(engine + integrated cache), and streams the paper's running example:
the keyword query Q1 = "Faloutsos" with l = 15 (Example 5 of the paper).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import QueryOptions, Session
from repro.datasets.dblp import small_dblp


def main() -> None:
    # 1. A database (swap in your own via repro.EngineBuilder).
    data = small_dblp(seed=7)
    print(f"Database: {data.db}")

    # 2. A session: engine (G_DS presets, ObjectRank store, theta = 0.7)
    #    plus an integrated summary cache.
    session = Session.from_dataset(data)

    # 3. The paper's Q1, streamed: each size-15 OS prints as soon as it is
    #    computed - no waiting for the full result list.
    for entry in session.iter_keyword_query(
        "Faloutsos", options=QueryOptions(l=15)
    ):
        result = entry.result
        print()
        print(
            f"--- {result.summary.root.label} match "
            f"(Im(S) = {result.importance:.2f}, "
            f"complete OS had {result.stats.initial_os_size} tuples) ---"
        )
        print(result.render())


if __name__ == "__main__":
    main()
