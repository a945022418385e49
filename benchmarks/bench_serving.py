"""Serving-layer benchmark: concurrent keyword queries (BENCH_serving.json).

Models the ROADMAP's target deployment — many clients streaming keyword
queries at one :class:`~repro.session.Session` — and measures what the
concurrent serving layer (thread-safe single-flight
:class:`~repro.core.cache.SummaryCache` + ``Executor`` fan-out) buys:

* ``keyword_stream_dbms`` (the headline): a zipfian stream of author
  keyword queries served by 1/4/8 worker threads against a simulated
  remote DBMS backend — the paper's own efficiency metric is I/O accesses
  (Figure 10), so each backend join carries a fixed I/O latency.  Worker
  threads overlap those waits; this is the scenario thread fan-out exists
  for, and the one the ``--check`` gate regresses.
* ``fanout_dbms``: ``Session.size_l_many(..., workers=N)`` over the cold
  distinct-subject set — the fan-out API itself, no cache hits involved.
* ``keyword_stream_inmem``: the same stream against the in-memory
  data-graph backend.  Pure-Python CPU work shares the GIL, so this row
  honestly documents that threads do *not* speed up the CPU-bound path
  (on this box: one core); it is reported, not gated.

Each scenario also reports the cache hit-rate under the zipfian mix and
verifies **single-flight**: across every thread and every repeat of a
subject, ``result_computations == distinct subjects`` (a violated
invariant fails the run even without ``--check``).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full
    PYTHONPATH=src python benchmarks/bench_serving.py --quick
    PYTHONPATH=src python benchmarks/bench_serving.py --quick \
        --check BENCH_serving.json --out /tmp/bench_ci.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.engine import SizeLEngine  # noqa: E402
from repro.core.generation import DatabaseBackend  # noqa: E402
from repro.core.options import QueryOptions, Source  # noqa: E402
from repro.core.registry import register_backend  # noqa: E402
from repro.datasets.dblp import DBLPConfig, generate_dblp  # noqa: E402
from repro.db.query import QueryInterface  # noqa: E402
from repro.ranking.objectrank import compute_objectrank  # noqa: E402
from repro.session import Session  # noqa: E402

SCHEMA_VERSION = 1
WORKER_GRID = (1, 4, 8)
SIZE_L = 10
ZIPF_A = 1.2
#: Each (scenario, workers) cell keeps its best-of-N run: serial streams
#: of thousands of 100us sleeps are very sensitive to kernel timer slack,
#: and the minimum filters those spikes out (same rationale as
#: bench_core_micro's _best_of).
REPEATS = 3


class SimulatedDBMSBackend:
    """The database backend with a fixed latency per I/O access.

    The paper counts one I/O access per join statement (Section 6.3); a
    remote DBMS pays network + page latency for each.  ``time.sleep``
    releases the GIL, so this models exactly the wait a serving thread
    pool is supposed to overlap.
    """

    def __init__(self, inner: DatabaseBackend, io_latency_s: float) -> None:
        self.inner = inner
        self.io_latency_s = io_latency_s

    @property
    def db(self):
        return self.inner.db

    def children(self, gds_child, parent_row, origin_row):
        time.sleep(self.io_latency_s)
        return self.inner.children(gds_child, parent_row, origin_row)

    def children_top(self, gds_child, parent_row, origin_row, store, threshold, limit):
        time.sleep(self.io_latency_s)
        return self.inner.children_top(
            gds_child, parent_row, origin_row, store, threshold, limit
        )


def _register_dbms_sim(io_latency_s: float) -> None:
    def factory(engine: SizeLEngine) -> SimulatedDBMSBackend:
        # A private QueryInterface per generation keeps the I/O counters
        # of concurrent generations from racing on one shared object.
        return SimulatedDBMSBackend(
            DatabaseBackend(QueryInterface(engine.db)), io_latency_s
        )

    register_backend("dbms_sim", factory, replace=True)


def build_workload(quick: bool):
    """Engine + a deterministic zipfian stream of author-name queries."""
    if quick:
        config = DBLPConfig(
            n_authors=120, n_papers=280, mean_citations_per_paper=5.0, seed=7
        )
        n_subjects, n_queries, io_latency_s = 12, 60, 100e-6
    else:
        config = DBLPConfig(seed=7)  # the bench-scale defaults (300 / 800)
        n_subjects, n_queries, io_latency_s = 40, 200, 100e-6

    dataset = generate_dblp(config)
    store = compute_objectrank(dataset.db, dataset.ga1())
    engine = SizeLEngine(dataset.db, {"author": dataset.author_gds()}, store)
    _register_dbms_sim(io_latency_s)

    # Subject universe: the most important authors (prominent subjects with
    # the large OSs the paper's efficiency experiments use); query mix:
    # zipfian over their importance rank — the skew a popular service sees.
    by_rank = np.argsort(store.array("author"))[::-1][:n_subjects]
    author = dataset.db.table("author")
    name_idx = author.schema.column_index("name")
    names = [str(author.row(int(row))[name_idx]) for row in by_rank]

    rng = np.random.default_rng(7)
    ranks = np.minimum(rng.zipf(ZIPF_A, size=n_queries) - 1, n_subjects - 1)
    stream = [names[int(rank)] for rank in ranks]
    subjects = [("author", int(row)) for row in by_rank]

    return {
        "engine": engine,
        "stream": stream,
        "subjects": subjects,
        "distinct_in_stream": len(set(stream)),
        "fixture": {
            "dataset": "synthetic-dblp",
            "seed": config.seed,
            "n_authors": config.n_authors,
            "n_papers": config.n_papers,
        },
        "workload": {
            "n_queries": n_queries,
            "subject_universe": n_subjects,
            "zipf_a": ZIPF_A,
            "io_latency_us": io_latency_s * 1e6,
            "l": SIZE_L,
        },
    }


def _run_stream(engine, stream, options: QueryOptions, workers: int) -> dict:
    """Serve the whole query stream through *workers* client threads."""
    session = Session(engine, cache_size=256)  # cold cache per measurement
    matched: set[tuple[str, int]] = set()

    def serve(keywords: str) -> list[tuple[str, int]]:
        return [
            (entry.match.table, entry.match.row_id)
            for entry in session.keyword_query(keywords, options=options)
        ]

    start = time.perf_counter()
    if workers == 1:
        for keywords in stream:
            matched.update(serve(keywords))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for subjects in pool.map(serve, stream):
                matched.update(subjects)
    seconds = time.perf_counter() - start

    stats = session.cache_stats()
    return {
        "seconds": seconds,
        "queries_per_second": len(stream) / seconds,
        "hit_rate": stats.hit_rate,
        "distinct_subjects": len(matched),
        "cache": stats.as_dict(),
    }


def _run_fanout(engine, subjects, options: QueryOptions, workers: int) -> dict:
    """One cold ``size_l_many`` fan-out over the distinct subject set."""
    session = Session(engine, cache_size=256)
    start = time.perf_counter()
    results = session.size_l_many(subjects, options=options, workers=workers)
    seconds = time.perf_counter() - start
    assert len(results) == len(subjects)
    return {
        "seconds": seconds,
        "subjects_per_second": len(subjects) / seconds,
        "cache": session.cache_stats().as_dict(),
    }


def _best_of(run, workers: int) -> dict:
    return min(
        (run(workers) for _ in range(REPEATS)), key=lambda row: row["seconds"]
    )


def _scenario(run, label: str, per_worker_key: str) -> dict:
    results = {str(workers): _best_of(run, workers) for workers in WORKER_GRID}
    base = results["1"]["seconds"]
    scenario = {
        "workers": results,
        "speedup_4x": base / results["4"]["seconds"],
        "speedup_8x": base / results["8"]["seconds"],
    }
    print(f"  {label}:")
    for workers in WORKER_GRID:
        row = results[str(workers)]
        extra = (
            f", hit-rate {row['hit_rate'] * 100:.0f}%"
            if "hit_rate" in row
            else ""
        )
        print(
            f"    workers={workers}: {row['seconds']:.3f}s "
            f"({row[per_worker_key]:.1f}/s{extra})"
        )
    print(
        f"    speedup: {scenario['speedup_4x']:.2f}x @4, "
        f"{scenario['speedup_8x']:.2f}x @8"
    )
    return scenario


def run_mode(quick: bool) -> dict:
    workload = build_workload(quick)
    engine = workload["engine"]
    stream = workload["stream"]
    subjects = workload["subjects"]

    dbms_options = QueryOptions(
        l=SIZE_L, source=Source.PRELIM, backend="dbms_sim", max_results=1
    ).normalized()
    inmem_options = QueryOptions(
        l=SIZE_L, source=Source.PRELIM, max_results=1
    ).normalized()

    print(
        f"workload: {workload['workload']['n_queries']} queries over "
        f"{workload['workload']['subject_universe']} subjects "
        f"(zipf a={ZIPF_A}, {workload['distinct_in_stream']} distinct in stream, "
        f"io latency {workload['workload']['io_latency_us']:.0f}us)"
    )

    scenarios = {
        "keyword_stream_dbms": _scenario(
            lambda w: _run_stream(engine, stream, dbms_options, w),
            "keyword stream, simulated-DBMS backend",
            "queries_per_second",
        ),
        "fanout_dbms": _scenario(
            lambda w: _run_fanout(engine, subjects, dbms_options, w),
            "size_l_many fan-out, simulated-DBMS backend",
            "subjects_per_second",
        ),
        "keyword_stream_inmem": _scenario(
            lambda w: _run_stream(engine, stream, inmem_options, w),
            "keyword stream, in-memory data-graph backend (GIL-bound)",
            "queries_per_second",
        ),
    }

    # Single-flight invariant, checked on the most concurrent stream run:
    # every distinct subject was computed exactly once, cache-wide.
    heaviest = scenarios["keyword_stream_dbms"]["workers"]["8"]
    single_flight = {
        "result_computations": heaviest["cache"]["result_computations"],
        "distinct_subjects": heaviest["distinct_subjects"],
        "verified": heaviest["cache"]["result_computations"]
        == heaviest["distinct_subjects"],
    }
    print(
        f"  single-flight @8 workers: {single_flight['result_computations']} "
        f"computations for {single_flight['distinct_subjects']} distinct "
        f"subjects -> {'OK' if single_flight['verified'] else 'VIOLATED'}"
    )

    return {
        "fixture": workload["fixture"],
        "workload": workload["workload"],
        "scenarios": scenarios,
        "single_flight": single_flight,
    }


def check_regression(baseline_path: Path, mode: str, result: dict) -> int:
    """Fail when the 4-worker serving speedup fell below half the baseline."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    try:
        committed = baseline["modes"][mode]["scenarios"]["keyword_stream_dbms"][
            "speedup_4x"
        ]
    except KeyError:
        print(f"CHECK SKIPPED: no '{mode}' baseline in {baseline_path}")
        return 0
    floor = committed / 2.0
    current = result["scenarios"]["keyword_stream_dbms"]["speedup_4x"]
    verdict = "OK" if current >= floor else "REGRESSION"
    print(
        f"CHECK [{mode}]: serving speedup @4 workers {current:.2f}x vs "
        f"committed {committed:.2f}x (floor {floor:.2f}x) -> {verdict}"
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
        default=REPO_ROOT / "BENCH_serving.json",
        help="JSON output path (merged per mode; default: repo-root "
        "BENCH_serving.json)",
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
    print(f"===== bench_serving [{mode}] =====")
    result = run_mode(args.quick)

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

    if not result["single_flight"]["verified"]:
        print("FAIL: single-flight invariant violated")
        return 1
    if args.check is not None:
        return check_regression(args.check, mode, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
