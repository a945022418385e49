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

Results are written as JSON (default: ``BENCH_core.json`` at the repo
root) under a per-mode key, so one file can hold both the ``full`` run
(the committed perf trajectory future PRs regress against) and the
``quick`` run (the CI smoke gate's baseline).

``--check BASELINE.json`` is the CI regression gate: it compares this
run's complete-OS flat-vs-legacy generation *speedup* against the same mode's
committed speedup and fails (exit 1) when the current value has dropped
below half of it.  The gate is a within-run ratio rather than absolute
seconds because both paths run on the same machine in the same process —
absolute timings on shared CI runners are noise, the ratio is not.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_micro.py            # full
    PYTHONPATH=src python benchmarks/bench_core_micro.py --quick
    PYTHONPATH=src python benchmarks/bench_core_micro.py --quick \
        --check BENCH_core.json --out /tmp/bench_ci.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT):  # repro, and tests.oracles
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

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

SCHEMA_VERSION = 1
SIZE_L = 20

#: report name -> (FlatOS algorithm, node-based reference body)
ALGORITHMS = {
    registered: (get_algorithm(registered), oracle)
    for _name, registered, oracle in ORACLE_ALGORITHMS
}


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time of *fn* (minimum filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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

    legacy_seconds = _best_of(generate_legacy, repeats)
    flat_seconds = _best_of(generate_flat, repeats)
    prelim_legacy_seconds = _best_of(prelim_legacy, repeats)
    prelim_flat_seconds = _best_of(prelim_flat, repeats)

    largest = subjects[0]
    legacy_tree = legacy_os(largest)
    flat_tree = engine.complete_os_flat("author", largest)
    algorithms = {}
    for name, (flat_algo, legacy_algo) in ALGORITHMS.items():
        algo_legacy = _best_of(lambda a=legacy_algo: a(legacy_tree, SIZE_L), repeats)
        algo_flat = _best_of(lambda a=flat_algo: a(flat_tree, SIZE_L), repeats)
        algorithms[name] = {
            "l": SIZE_L,
            "legacy_seconds": algo_legacy,
            "flat_seconds": algo_flat,
            "speedup": algo_legacy / algo_flat,
        }

    return {
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
        },
        "prelim_os_generation": {
            "l": SIZE_L,
            "total_os_nodes": prelim_nodes,
            "legacy_seconds": prelim_legacy_seconds,
            "flat_seconds": prelim_flat_seconds,
            "speedup": prelim_legacy_seconds / prelim_flat_seconds,
        },
        "size_l": algorithms,
    }


def print_report(mode: str, result: dict) -> None:
    gen = result["complete_os_generation"]
    dg = result["data_graph"]
    fixture = result["fixture"]
    print(f"===== bench_core_micro [{mode}] =====")
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


def check_regression(baseline_path: Path, mode: str, result: dict) -> int:
    """Fail (1) when generation speedup fell below half the baseline's."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    try:
        committed = baseline["modes"][mode]["complete_os_generation"]["speedup"]
    except KeyError:
        print(f"CHECK SKIPPED: no '{mode}' baseline in {baseline_path}")
        return 0
    floor = committed / 2.0
    current = result["complete_os_generation"]["speedup"]
    verdict = "OK" if current >= floor else "REGRESSION"
    print(
        f"CHECK [{mode}]: flat generation speedup {current:.1f}x vs committed "
        f"{committed:.1f}x (floor {floor:.1f}x) -> {verdict}"
    )
    return 0 if current >= floor else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small fixture (CI smoke mode)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="JSON output path (merged per mode; default: repo-root BENCH_core.json)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against a committed baseline; exit 1 on a >2x regression",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    result = run_mode(args.quick)
    print_report(mode, result)

    payload: dict = {"schema_version": SCHEMA_VERSION, "modes": {}}
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text(encoding="utf-8"))
            if existing.get("schema_version") == SCHEMA_VERSION:
                payload = existing
        except json.JSONDecodeError:
            pass
    payload["modes"][mode] = result
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if args.check is not None:
        return check_regression(args.check, mode, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
