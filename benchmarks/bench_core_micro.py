"""Micro-benchmark of the columnar core hot path (BENCH_core.json).

Measures, on the synthetic DBLP fixture:

* data-graph build time and exact memory bytes (CSR layout);
* complete-OS generation throughput — the node-based reference generator
  (``tests/oracles.py``: one OSNode per tuple) vs the columnar
  ``generate_os_flat`` hot path, same subjects, same run;
* prelim-l generation (Algorithm 4) at l = 20 — the node-based reference
  vs the FlatOS-emitting ``generate_prelim_os`` the default keyword query
  runs, same subjects, same run;
* size-l latency of dp / bottom_up / top_path / top_path_optimized on the
  FlatOS vs the node-based reference bodies (the trees and selections are
  asserted identical first).

Each generation and size-l timing is the best of a few passes
(:func:`benchlib.measure` records their spread beside it).  The ``--out`` record (default:
``BENCH_core.json`` at the repo root) and ``--check`` come from
:func:`benchlib.bench_main`.  The gate is the complete-OS flat-vs-legacy
generation *speedup*, which may not drop below half the committed one: a
within-run ratio rather than absolute seconds, because both paths run on
the same machine in the same process — absolute timings on shared CI
runners are noise, the ratio is not.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_micro.py            # full
    PYTHONPATH=src python benchmarks/bench_core_micro.py --quick
    PYTHONPATH=src python benchmarks/bench_core_micro.py --quick \
        --check BENCH_core.json --out /tmp/bench_ci.json
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT):  # repro, and tests.oracles
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from benchlib import Gate, bench_main, measure  # noqa: E402
from repro.core.engine import SizeLEngine  # noqa: E402
from repro.core.generation import DataGraphBackend  # noqa: E402
from repro.core.registry import get_algorithm  # noqa: E402
from repro.datagraph.builder import timed_build  # noqa: E402
from repro.datasets.dblp import DBLPConfig, generate_dblp  # noqa: E402
from repro.ranking.objectrank import compute_objectrank  # noqa: E402
from tests.oracles import (  # noqa: E402
    ORACLE_ALGORITHMS,
    assert_same_selection,
    assert_same_tree,
    generate_os_nodes,
    generate_prelim_os_nodes,
)

BASELINE = "BENCH_core.json"
GATES = (
    Gate("flat generation speedup", "complete_os_generation.speedup", floor=True, scale=0.5),
)
SIZE_L = 20

#: report name -> (FlatOS algorithm, node-based reference body)
ALGORITHMS = {
    registered: (get_algorithm(registered), oracle)
    for _name, registered, oracle in ORACLE_ALGORITHMS
}


def run_mode(quick: bool) -> dict:
    if quick:
        config = DBLPConfig(
            n_authors=120, n_papers=280, mean_citations_per_paper=5.0, seed=7
        )
        n_subjects, repeats = 4, 2
    else:
        config = DBLPConfig(seed=7)  # the bench-scale defaults (300 / 800)
        n_subjects, repeats = 6, 3

    dataset = generate_dblp(config)
    store = compute_objectrank(dataset.db, dataset.ga1())

    graph, build_seconds = timed_build(dataset.db)
    engine = SizeLEngine(
        dataset.db, {"author": dataset.author_gds()}, store, data_graph=graph
    )

    # The most important authors: prominent subjects with the large OSs the
    # paper's efficiency experiments use (deterministic under the seed).
    subjects = [
        int(row) for row in np.argsort(store.array("author"))[::-1][:n_subjects]
    ]

    gds = engine.gds_for("author")
    backend = DataGraphBackend(engine.db, graph)

    def legacy_os(subject: int):
        return generate_os_nodes(subject, gds, backend, store)

    def legacy_prelim(subject: int):
        return generate_prelim_os_nodes(subject, gds, backend, store, SIZE_L)

    # Sanity before timing anything: the two representations must agree.
    for subject in subjects:
        legacy = legacy_os(subject)
        flat = engine.complete_os_flat("author", subject)
        assert_same_tree(flat, legacy)
        legacy_p, legacy_stats = legacy_prelim(subject)
        flat_p, flat_stats = engine.prelim_os("author", subject, SIZE_L)
        assert_same_tree(flat_p, legacy_p)
        assert flat_stats == legacy_stats, subject
        for flat_algo, legacy_algo in ALGORITHMS.values():
            assert_same_selection(flat_algo(flat, SIZE_L), legacy_algo(legacy, SIZE_L))

    total_nodes = sum(engine.complete_os_flat("author", s).size for s in subjects)
    prelim_nodes = sum(engine.prelim_os("author", s, SIZE_L)[0].size for s in subjects)

    def generate_legacy() -> None:
        for subject in subjects:
            legacy_os(subject)

    def generate_flat() -> None:
        for subject in subjects:
            engine.complete_os_flat("author", subject)

    def prelim_legacy() -> None:
        for subject in subjects:
            legacy_prelim(subject)

    def prelim_flat() -> None:
        for subject in subjects:
            engine.prelim_os("author", subject, SIZE_L)

    legacy_timing, _ = measure(generate_legacy, repeats)
    flat_timing, _ = measure(generate_flat, repeats)
    prelim_legacy_timing, _ = measure(prelim_legacy, repeats)
    prelim_flat_timing, _ = measure(prelim_flat, repeats)
    legacy_seconds, flat_seconds = legacy_timing["min"], flat_timing["min"]
    prelim_legacy_seconds = prelim_legacy_timing["min"]
    prelim_flat_seconds = prelim_flat_timing["min"]

    largest = subjects[0]
    legacy_tree = legacy_os(largest)
    flat_tree = engine.complete_os_flat("author", largest)
    algorithms = {}
    for name, (flat_algo, legacy_algo) in ALGORITHMS.items():
        algo_legacy, _ = measure(lambda a=legacy_algo: a(legacy_tree, SIZE_L), repeats)
        algo_flat, _ = measure(lambda a=flat_algo: a(flat_tree, SIZE_L), repeats)
        algorithms[name] = {
            "l": SIZE_L,
            "legacy_seconds": algo_legacy["min"],
            "flat_seconds": algo_flat["min"],
            "speedup": algo_legacy["min"] / algo_flat["min"],
            "legacy_timing": algo_legacy,
            "flat_timing": algo_flat,
        }

    result = {
        "fixture": {
            "dataset": "synthetic-dblp",
            "seed": config.seed,
            "n_authors": config.n_authors,
            "n_papers": config.n_papers,
            "subjects": len(subjects),
            "total_os_nodes": total_nodes,
            "largest_os_nodes": flat_tree.size,
        },
        "data_graph": {
            "build_seconds": build_seconds,
            "size_bytes": graph.size_bytes(),
            "tuple_edges": graph.edge_count,
        },
        "complete_os_generation": {
            "legacy_seconds": legacy_seconds,
            "flat_seconds": flat_seconds,
            "speedup": legacy_seconds / flat_seconds,
            "legacy_nodes_per_second": total_nodes / legacy_seconds,
            "flat_nodes_per_second": total_nodes / flat_seconds,
            "legacy_timing": legacy_timing,
            "flat_timing": flat_timing,
        },
        "prelim_os_generation": {
            "l": SIZE_L,
            "total_os_nodes": prelim_nodes,
            "legacy_seconds": prelim_legacy_seconds,
            "flat_seconds": prelim_flat_seconds,
            "speedup": prelim_legacy_seconds / prelim_flat_seconds,
            "legacy_timing": prelim_legacy_timing,
            "flat_timing": prelim_flat_timing,
        },
        "size_l": algorithms,
    }
    print_report(result)
    return result


def print_report(result: dict) -> None:
    gen = result["complete_os_generation"]
    dg = result["data_graph"]
    fixture = result["fixture"]
    print(
        f"fixture: {fixture['n_authors']} authors / {fixture['n_papers']} papers, "
        f"{fixture['subjects']} subjects, {fixture['total_os_nodes']} OS nodes"
    )
    print(
        f"data graph: build {dg['build_seconds'] * 1000:.1f} ms, "
        f"{dg['size_bytes']} bytes (exact), {dg['tuple_edges']} tuple edges"
    )
    print(
        f"complete-OS generation: legacy {gen['legacy_seconds'] * 1000:.1f} ms, "
        f"flat {gen['flat_seconds'] * 1000:.1f} ms  "
        f"-> {gen['speedup']:.1f}x "
        f"({gen['flat_nodes_per_second']:,.0f} nodes/s)"
    )
    prelim = result["prelim_os_generation"]
    print(
        f"prelim-{prelim['l']} generation: legacy "
        f"{prelim['legacy_seconds'] * 1000:.1f} ms, flat "
        f"{prelim['flat_seconds'] * 1000:.1f} ms  -> {prelim['speedup']:.2f}x "
        f"({prelim['total_os_nodes']} nodes)"
    )
    for name, algo in result["size_l"].items():
        print(
            f"size-l {name:<18} legacy {algo['legacy_seconds'] * 1000:7.2f} ms, "
            f"flat {algo['flat_seconds'] * 1000:7.2f} ms  "
            f"-> {algo['speedup']:.2f}x"
        )


if __name__ == "__main__":
    raise SystemExit(bench_main(__doc__, BASELINE, run_mode, GATES))
