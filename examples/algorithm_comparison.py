"""Side-by-side comparison of the size-l algorithms (Sections 4-5).

For one large Author OS, runs DP (optimal), Bottom-Up Pruning, and both
Update Top-Path-l variants across a range of l, on the complete OS and on
the prelim-l OS — printing the approximation-quality and runtime picture
the paper's Figures 9 and 10 summarise, for a single Data Subject.

Run:  python examples/algorithm_comparison.py
"""

from __future__ import annotations

import time

from repro.core import EngineBuilder
from repro.core.bottom_up import bottom_up_size_l
from repro.core.dp import optimal_size_l
from repro.core.top_path import top_path_size_l
from repro.datasets.dblp import DBLPConfig, generate_dblp
from repro.util.text import format_table


def main() -> None:
    data = generate_dblp(DBLPConfig(n_authors=150, n_papers=400, seed=7))
    # from_dataset wires the G_DS presets and the default ObjectRank store.
    engine = EngineBuilder.from_dataset(data).build()

    subject_row = 0  # Christos Faloutsos - the largest OS in the database
    complete = engine.complete_os("author", subject_row)
    print(f"Subject OS: {complete.size} tuples, Im = {complete.total_importance():.1f}")

    algorithms = {
        "optimal (DP)": optimal_size_l,
        "bottom-up": bottom_up_size_l,
        "top-path": top_path_size_l,
        "top-path s(v)": lambda t, l: top_path_size_l(t, l, variant="optimized"),
    }

    headers = ["l", "source", "algorithm", "Im(S)", "quality %", "ms"]
    rows = []
    for l in (5, 10, 20, 40):  # noqa: E741
        prelim, _stats = engine.prelim_os("author", subject_row, l)
        optimum = optimal_size_l(complete, l).importance
        for source_name, tree in (("complete", complete), (f"prelim({prelim.size})", prelim)):
            for name, algorithm in algorithms.items():
                start = time.perf_counter()
                result = algorithm(tree, l)
                elapsed_ms = (time.perf_counter() - start) * 1000
                quality = 100.0 * result.importance / optimum if optimum else 100.0
                rows.append(
                    [l, source_name, name, result.importance, quality, elapsed_ms]
                )
    print()
    print(format_table(headers, rows, float_format="{:.2f}"))
    print()
    print(
        "Reading guide: quality is Im(S) relative to DP on the complete OS\n"
        "(the paper's Figure 9 measure); prelim sources trade a tiny quality\n"
        "loss for a much smaller initial OS (Figure 10's speed-ups)."
    )


if __name__ == "__main__":
    main()
