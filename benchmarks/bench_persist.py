"""Persistence-tier benchmark: cold start, snapshot vs. from-scratch.

Measures what the :mod:`repro.persist` snapshot store buys a serving
process that has the *database* but none of the derived structures — the
ROADMAP's fast-cold-start requirement:

* ``cold_start.full``: build a Session from the dataset (ObjectRank power
  iteration, inverted-index scan, data-graph build) and **rebuild the
  serving state** — generate the complete OS of every subject the
  snapshot would have covered — before serving the first keyword query;
* ``cold_start.snapshot``: attach a precomputed snapshot instead.  The
  importance store, inverted index, CSR data graph, and all complete OS
  trees come off ``mmap`` — the attach *is* the warm-up — and the same
  first query is served from disk hits.

Both variants exclude synthesising the dataset itself (in production the
DBMS already exists) and end in the same servable state: every hot
subject's complete OS available at memory-or-disk speed (the cold
variant's trees end up in RAM, the snapshot's in the page cache; the
per-serve gap is reported as ``first_query_seconds``).  Timings are the
best of ``REPEATS`` runs, with their spread beside them.  The run also
self-verifies:

* the warm first results are selection-identical to the cold ones
  (serving from disk must be indistinguishable from generating);
* a corrupted arena and a mismatched-fingerprint snapshot are rejected
  with the library's typed errors (never silently served).

``--check`` fails when the snapshot cold-start speedup drops below half
the committed one (a within-run ratio, so shared-runner noise cancels).

Usage::

    PYTHONPATH=src python benchmarks/bench_persist.py            # full
    PYTHONPATH=src python benchmarks/bench_persist.py --quick
    PYTHONPATH=src python benchmarks/bench_persist.py --quick \
        --check BENCH_persist.json --out /tmp/bench_persist_ci.json
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from benchlib import Gate, bench_main, measure  # noqa: E402
from repro.core.builder import EngineBuilder  # noqa: E402
from repro.core.options import QueryOptions, Source  # noqa: E402
from repro.datasets.dblp import DBLPConfig, generate_dblp  # noqa: E402
from repro.errors import SnapshotFormatError, SnapshotMismatchError  # noqa: E402
from repro.persist import Snapshot, precompute_snapshot, select_subjects  # noqa: E402

BASELINE = "BENCH_persist.json"
GATES = (
    Gate("snapshot cold-start speedup", "cold_start.speedup", floor=True, scale=0.5),
)
SIZE_L = 10
KEYWORDS = "Faloutsos"
#: Cold starts re-run cleanly (each run builds a fresh Session), so the
#: minimum filters scheduler noise out, same as the other benches.
REPEATS = 3

QUERY_OPTIONS = QueryOptions(l=SIZE_L, source=Source.COMPLETE, max_results=3)


def build_fixture(quick: bool) -> dict:
    if quick:
        config = DBLPConfig(
            n_authors=120, n_papers=280, mean_citations_per_paper=5.0, seed=7
        )
    else:
        config = DBLPConfig(seed=7)  # bench-scale defaults (300 / 800)
    dataset = generate_dblp(config)
    return {
        "dataset": dataset,
        "fixture": {
            "dataset": "synthetic-dblp",
            "seed": config.seed,
            "n_authors": config.n_authors,
            "n_papers": config.n_papers,
        },
    }


def _first_results(session) -> list:
    return [
        (entry.match.table, entry.match.row_id, frozenset(entry.result.selected_uids))
        for entry in session.iter_keyword_query(KEYWORDS, options=QUERY_OPTIONS)
    ]


def _cold_start(
    dataset, hot_subjects: list[tuple[str, int]], snapshot_path: Path | None
) -> dict:
    """One cold start: build + reach the servable state + first query.

    Without a snapshot, "servable" means the complete OS of every hot
    subject has been generated (the serving state a snapshot persists);
    with one, attaching the mmap arena already is that state, so the
    warm-up loop is skipped.
    """
    build_start = time.perf_counter()
    builder = EngineBuilder.from_dataset(dataset)
    if snapshot_path is not None:
        builder.with_snapshot(snapshot_path)
    session = builder.build_session(cache_size=len(hot_subjects) + 8)
    build_seconds = time.perf_counter() - build_start

    warmup_start = time.perf_counter()
    if snapshot_path is None:
        for table, row_id in hot_subjects:
            session.cache.complete_os_flat(table, row_id)
    warmup_seconds = time.perf_counter() - warmup_start

    query_start = time.perf_counter()
    results = _first_results(session)
    query_seconds = time.perf_counter() - query_start
    stats = session.cache_stats()
    return {
        "build_seconds": build_seconds,
        "warmup_seconds": warmup_seconds,
        "first_query_seconds": query_seconds,
        "total_seconds": build_seconds + warmup_seconds + query_seconds,
        "disk_hits": stats.disk_hits,
        "tree_generations": stats.tree_generations,
        "results": results,
    }


def _fastest_cold_start(
    dataset, hot_subjects: list[tuple[str, int]], snapshot_path: Path | None
) -> dict:
    """The fastest of ``REPEATS`` cold starts, with the spread of all."""
    timing, runs = measure(
        lambda: _cold_start(dataset, hot_subjects, snapshot_path),
        REPEATS,
        seconds=lambda row: row["total_seconds"],
    )
    return {**runs[0], "timing": timing}


def verify_rejection(dataset, snapshot_path: Path, workdir: Path) -> dict:
    """A corrupt or mismatched snapshot must raise, not serve."""
    corrupt_dir = workdir / "corrupt"
    shutil.copytree(snapshot_path, corrupt_dir)
    target = corrupt_dir / "trees_weight.npy"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    try:
        Snapshot.open(corrupt_dir)
        corrupt_rejected = False
    except SnapshotFormatError:
        corrupt_rejected = True

    other = generate_dblp(DBLPConfig(n_authors=60, n_papers=120, seed=99))
    try:
        EngineBuilder.from_dataset(other).with_snapshot(snapshot_path).build()
        mismatch_rejected = False
    except SnapshotMismatchError:
        mismatch_rejected = True
    return {
        "corrupt_rejected": corrupt_rejected,
        "mismatch_rejected": mismatch_rejected,
    }


def run_mode(quick: bool) -> dict:
    fixture = build_fixture(quick)
    dataset = fixture["dataset"]
    workdir = Path(tempfile.mkdtemp(prefix="bench-persist-"))
    try:
        snapshot_path = workdir / "snapshot"
        # Offline precompute: full engine build + every author subject.
        precompute_start = time.perf_counter()
        engine = EngineBuilder.from_dataset(dataset).build()
        hot_subjects = select_subjects(engine, table="author")
        report = precompute_snapshot(engine, hot_subjects, snapshot_path)
        precompute_seconds = time.perf_counter() - precompute_start

        full = _fastest_cold_start(dataset, hot_subjects, None)
        snap = _fastest_cold_start(dataset, hot_subjects, snapshot_path)

        results_match = full.pop("results") == snap.pop("results")
        speedup = full["total_seconds"] / snap["total_seconds"]
        rejection = verify_rejection(dataset, snapshot_path, workdir)

        print(
            f"  precompute: {report.subjects} subjects, "
            f"{report.tree_nodes} nodes, {report.size_bytes / 1024:.0f} KiB "
            f"({precompute_seconds:.2f}s incl. engine build)"
        )
        print(
            f"  cold start, from scratch: {full['total_seconds'] * 1e3:.1f}ms "
            f"(build {full['build_seconds'] * 1e3:.1f}ms + "
            f"OS warm-up {full['warmup_seconds'] * 1e3:.1f}ms + first query "
            f"{full['first_query_seconds'] * 1e3:.1f}ms, "
            f"{full['tree_generations']} generations)"
        )
        print(
            f"  cold start, snapshot:     {snap['total_seconds'] * 1e3:.1f}ms "
            f"(build {snap['build_seconds'] * 1e3:.1f}ms + first query "
            f"{snap['first_query_seconds'] * 1e3:.1f}ms, "
            f"{snap['disk_hits']} disk hits, "
            f"{snap['tree_generations']} generations)"
        )
        print(
            f"  speedup: {speedup:.1f}x; identical results: "
            f"{'OK' if results_match else 'MISMATCH'}; rejection: "
            f"corrupt {'OK' if rejection['corrupt_rejected'] else 'FAIL'}, "
            f"mismatch {'OK' if rejection['mismatch_rejected'] else 'FAIL'}"
        )
        return {
            "fixture": fixture["fixture"],
            "workload": {"keywords": KEYWORDS, "l": SIZE_L, "max_results": 3},
            "precompute": {
                "subjects": report.subjects,
                "tree_nodes": report.tree_nodes,
                "snapshot_bytes": report.size_bytes,
                "seconds": precompute_seconds,
            },
            "cold_start": {
                "full": full,
                "snapshot": snap,
                "speedup": speedup,
            },
            "verified": {
                "identical_results": results_match,
                **rejection,
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(bench_main(__doc__, BASELINE, run_mode, GATES))
