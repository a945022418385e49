"""The paper's running example, end to end (Examples 1-5).

Walks through the three result paradigms the introduction contrasts:

* Example 3 — plain R-KwS: the ranked list of matching Author tuples;
* Example 4 — the complete OS of the top match (large!);
* Example 5 — size-15 OSs: synoptic, stand-alone summaries per brother;

then shows the machinery underneath: the annotated Author G_DS (Figure 2),
the prelim-l OS with avoidance-condition statistics (Figure 7), and a
comparison of all size-l algorithms on the same OS.

Run:  python examples/dblp_faloutsos.py
"""

from __future__ import annotations

from repro import Algorithm, QueryOptions, Session, Source
from repro.datasets.dblp import DBLPConfig, generate_dblp


def main() -> None:
    data = generate_dblp(DBLPConfig(n_authors=120, n_papers=300, seed=7))
    # from_dataset wires the G_DS presets and the default ObjectRank store;
    # the engine underneath exposes the pipeline's individual stages.
    session = Session.from_dataset(data)
    engine = session.engine

    print("=" * 72)
    print("Example 3 - R-KwS result for Q1 'Faloutsos': matching tuples only")
    print("=" * 72)
    matches = engine.searcher.search("Faloutsos")
    for match in matches:
        name = data.db.table("author").value(match.row_id, "name")
        print(f"  Author: {name}   (Im = {match.importance:.2f})")

    christos = matches[0]
    complete = engine.complete_os("author", christos.row_id)
    print()
    print("=" * 72)
    print(f"Example 4 - the complete OS ({complete.size} tuples; first 12 shown)")
    print("=" * 72)
    print(complete.to_object_summary().render(max_nodes=12))

    print()
    print("=" * 72)
    print("Example 5 - size-15 OSs for every Faloutsos brother")
    print("=" * 72)
    for entry in session.keyword_query("Faloutsos", l=15):
        print()
        print(entry.result.render())

    print()
    print("=" * 72)
    print("Figure 2 - the annotated Author G_DS (theta = 0.7)")
    print("=" * 72)
    print(engine.gds_for("author").render())

    print()
    print("=" * 72)
    print("Figure 7 - prelim-l OS generation (l = 15)")
    print("=" * 72)
    prelim, stats = engine.prelim_os("author", christos.row_id, 15)
    print(
        f"complete OS: {complete.size} tuples -> prelim-15 OS: {prelim.size} tuples\n"
        f"extracted {stats.extracted_tuples} tuples; "
        f"Avoidance Condition 1 skipped {stats.avoided_subtrees} subtrees; "
        f"Avoidance Condition 2 capped {stats.limited_extractions} joins"
    )

    print()
    print("=" * 72)
    print("All size-l algorithms on the same OS (l = 15)")
    print("=" * 72)
    for algorithm in Algorithm:
        for source in Source:
            options = QueryOptions(l=15, algorithm=algorithm, source=source)
            result = session.size_l("author", christos.row_id, options=options)
            print(
                f"  {algorithm.value:>20} on {source.value:8}: "
                f"Im(S) = {result.importance:8.2f}  "
                f"({result.stats.algorithm_seconds * 1000:6.1f} ms)"
            )


if __name__ == "__main__":
    main()
