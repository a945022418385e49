"""Storage-tier benchmark: real-data loading, SQL serving, buffer pool.

Exercises the :mod:`repro.storage` pipeline end to end, the way the
README quickstart does — XML dump → SQLite file → served session — and
measures what each layer costs:

* ``load``: the streaming DBLP XML parser into SQLite (tuples/second,
  never materialising the XML in RAM);
* ``cold_start``: building a servable Session straight from the SQLite
  file (import + build + first query) vs. from the already-resident
  in-memory ``Database``;
* ``warm_qps``: steady-state keyword/size-l throughput with the
  in-memory ``datagraph`` backend vs. the ``sqlite`` backend executing
  every tuple fetch and FK join as SQL (per-statement IO accounting);
* ``buffer_pool``: hit rates and resident bytes serving the same
  workload through page pools sized at 10%/50%/100% of the mmap'd CSR
  arena.

The run self-verifies (any failure exits 1):

* sqlite-backend results are selection-identical to the in-memory
  backends across the workload;
* buffer-pool serving returns exactly the fully-resident results;
* the pool's resident bytes never exceed its capacity, and the 10%/50%
  pools stay bounded strictly below full-arena residency (the
  bounded-RSS guarantee: disk-resident graphs serve without full
  residency);
* full mode loads a >= 100k-tuple dataset through the real XML parser.

Cold starts are the best of ``REPEATS``, with the spread beside them.
``--check`` gates two dimensionless metrics, so it is stable across
machines: the sqlite backend may not fall below half its committed
relative throughput, and the full-arena pool's hit rate may not drop
more than 0.15 absolute.

Usage::

    PYTHONPATH=src python benchmarks/bench_storage.py            # full
    PYTHONPATH=src python benchmarks/bench_storage.py --quick
    PYTHONPATH=src python benchmarks/bench_storage.py --quick \
        --check BENCH_storage.json --out /tmp/bench_storage_ci.json
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
from repro.persist.precompute import (  # noqa: E402
    precompute_snapshot,
    select_subjects,
)
from repro.storage import (  # noqa: E402
    load_dblp_xml,
    open_dataset,
    write_dblp_xml,
)

BASELINE = "BENCH_storage.json"
GATES = (
    Gate("sqlite/datagraph qps ratio", "warm_qps.sqlite_vs_datagraph", floor=True, scale=0.5),
    Gate("100% pool hit rate", "buffer_pool.pools.100%.hit_rate", floor=True, offset=-0.15),
)
SIZE_L = 10
KEYWORDS = "Faloutsos"
#: Pool capacities exercised, as fractions of the CSR arena.
POOL_FRACTIONS = (0.1, 0.5, 1.0)
REPEATS = 2

QUERY_OPTIONS = QueryOptions(
    l=SIZE_L, source=Source.PRELIM, max_results=5
).normalized()
#: full-mode floor pinned by the acceptance criteria
FULL_TUPLE_FLOOR = 100_000


def build_fixture(quick: bool) -> dict:
    """Synthesise a DBLP instance and render it as a DBLP XML dump.

    The loader is then exercised on the *real parser* over realistic
    record shapes; full mode sizes the instance past the 100k-tuple
    acceptance floor.
    """
    if quick:
        config = DBLPConfig(
            n_authors=120, n_papers=280, mean_citations_per_paper=5.0, seed=7
        )
    else:
        config = DBLPConfig(
            n_authors=9_000,
            n_papers=28_000,
            n_conferences=60,
            mean_citations_per_paper=2.5,
            seed=7,
        )
    dataset = generate_dblp(config)
    return {
        "dataset": dataset,
        "fixture": {
            "dataset": "synthetic-dblp-xml",
            "seed": config.seed,
            "n_authors": config.n_authors,
            "n_papers": config.n_papers,
        },
    }


def _results(session, options=QUERY_OPTIONS) -> list:
    return [
        (entry.match.table, entry.match.row_id, frozenset(entry.result.selected_uids))
        for entry in session.iter_keyword_query(KEYWORDS, options=options)
    ]


def _arena_bytes(session) -> int:
    return sum(adj.nbytes for adj in session.engine.data_graph.adjacencies())


def bench_load(dataset, workdir: Path) -> tuple[Path, dict]:
    xml_path = workdir / "dblp.xml"
    write_dblp_xml(dataset, xml_path)
    sqlite_path = workdir / "dblp.sqlite"
    start = time.perf_counter()
    report = load_dblp_xml(xml_path, sqlite_path)
    seconds = time.perf_counter() - start
    return sqlite_path, {
        "xml_bytes": xml_path.stat().st_size,
        "tuples": report.total_tuples,
        "papers": report.papers,
        "authors": report.authors,
        "cites": report.cites,
        "seconds": seconds,
        "tuples_per_second": report.total_tuples / max(seconds, 1e-9),
    }


def bench_cold_start(sqlite_path: Path) -> dict:
    """Servable from the SQLite file vs. from the resident Database."""

    def from_file() -> dict:
        start = time.perf_counter()
        session = EngineBuilder.from_dataset(
            open_dataset(sqlite_path)
        ).build_session()
        build = time.perf_counter() - start
        results = _results(session)
        return {
            "total_seconds": time.perf_counter() - start,
            "build_seconds": build,
            "results": results,
            "session": session,
        }

    def total(run: dict) -> float:
        return run["total_seconds"]

    file_timing, file_runs = measure(from_file, REPEATS, seconds=total)
    best_file = {**file_runs[0], "timing": file_timing}
    dataset = open_dataset(sqlite_path)  # resident from here on

    def from_memory() -> dict:
        start = time.perf_counter()
        session = EngineBuilder.from_dataset(dataset).build_session()
        build = time.perf_counter() - start
        results = _results(session)
        return {
            "total_seconds": time.perf_counter() - start,
            "build_seconds": build,
            "results": results,
        }

    memory_timing, memory_runs = measure(from_memory, REPEATS, seconds=total)
    best_memory = {**memory_runs[0], "timing": memory_timing}
    identical = best_file["results"] == best_memory["results"]
    session = best_file.pop("session")
    best_file.pop("results")
    best_memory.pop("results")
    return {
        "session": session,
        "report": {
            "sqlite_file": best_file,
            "in_memory": best_memory,
            "import_overhead_seconds": best_file["total_seconds"]
            - best_memory["total_seconds"],
        },
        "identical": identical,
    }


def bench_warm_qps(session, subjects: int) -> tuple[dict, bool]:
    """Steady-state OS generations/second per backend.

    Generation runs at the engine level (the Session's summary cache
    would otherwise absorb every repeat), over *subjects* author rows
    spread across the table, so every backend executes its real tuple
    fetches and FK joins each iteration.  Each backend is timed through
    the generator that serves it: ``datagraph`` the level-synchronous
    ``generate_os_flat``, ``database`` and ``sqlite`` the per-parent
    ``generate_os``.
    """
    engine = session.engine
    authors = len(engine.db.table("author"))
    rows = sorted({int(i * authors / subjects) for i in range(subjects)})
    per_backend: dict[str, dict] = {}
    expected = None
    identical = True
    for backend in ("datagraph", "database", "sqlite"):
        renders = [
            engine.complete_os("author", row, backend=backend)
            .to_object_summary()
            .render()
            for row in rows  # warm up + verify
        ]
        if expected is None:
            expected = renders
        elif renders != expected:
            identical = False
        qi = engine.query_interface
        qi.reset_counters()
        start = time.perf_counter()
        for row in rows:
            engine.complete_os("author", row, backend=backend)
        seconds = time.perf_counter() - start
        per_backend[backend] = {
            "qps": len(rows) / max(seconds, 1e-9),
            "io_accesses_per_query": qi.io_accesses / len(rows),
        }
    ratio = per_backend["sqlite"]["qps"] / per_backend["datagraph"]["qps"]
    return {"backends": per_backend, "sqlite_vs_datagraph": ratio}, identical


def bench_buffer_pool(
    sqlite_path: Path, resident_session, workdir: Path, quick: bool
) -> tuple[dict, dict]:
    """Hit rates serving through pools at 10%/50%/100% of the arena."""
    dataset = open_dataset(sqlite_path)
    snapshot_dir = workdir / "snapshot"
    engine = EngineBuilder.from_dataset(dataset).build()
    subjects = select_subjects(
        engine, top_keywords=40 if quick else 150
    )
    precompute_snapshot(engine, subjects, snapshot_dir)

    arena = _arena_bytes(resident_session)
    expected = _results(resident_session)
    verified = {"pool_identical_results": True, "bounded_rss": True}
    rows = {}
    for fraction in POOL_FRACTIONS:
        capacity = max(4096, int(arena * fraction))
        session = (
            EngineBuilder.from_dataset(dataset)
            .with_snapshot(snapshot_dir)
            .with_buffer_pool(capacity)
            .build_session()
        )
        if _results(session) != expected:
            verified["pool_identical_results"] = False
        pool = session.engine.buffer_pool
        if pool.resident_bytes > capacity:
            verified["bounded_rss"] = False
        if fraction < 1.0 and capacity >= arena:
            # the bounded-RSS claim is vacuous if the "partial" pool
            # already covers the arena (only plausible on tiny fixtures)
            verified["bounded_rss"] = verified["bounded_rss"] and quick
        rows[f"{int(fraction * 100)}%"] = {
            "capacity_bytes": capacity,
            "resident_bytes": pool.resident_bytes,
            "hit_rate": pool.hit_rate(),
            "hits": pool.hits,
            "misses": pool.misses,
            "evictions": pool.evictions,
        }
    return {"arena_bytes": arena, "pools": rows}, verified


def run_mode(quick: bool) -> dict:
    fixture = build_fixture(quick)
    workdir = Path(tempfile.mkdtemp(prefix="bench-storage-"))
    try:
        sqlite_path, load = bench_load(fixture["dataset"], workdir)
        cold = bench_cold_start(sqlite_path)
        session = cold.pop("session")
        warm, backends_identical = bench_warm_qps(
            session, subjects=16 if quick else 24
        )
        pool_report, pool_verified = bench_buffer_pool(
            sqlite_path, session, workdir, quick
        )
        tuple_floor = load["tuples"] >= (1_000 if quick else FULL_TUPLE_FLOOR)

        print(
            f"  load: {load['tuples']} tuples from "
            f"{load['xml_bytes'] / 1024:.0f} KiB XML in {load['seconds']:.2f}s "
            f"({load['tuples_per_second']:.0f} tuples/s)"
        )
        report = cold["report"]
        print(
            f"  cold start: sqlite file "
            f"{report['sqlite_file']['total_seconds'] * 1e3:.1f}ms vs "
            f"in-memory {report['in_memory']['total_seconds'] * 1e3:.1f}ms"
        )
        for backend, row in warm["backends"].items():
            print(
                f"  warm [{backend}]: {row['qps']:.1f} qps, "
                f"{row['io_accesses_per_query']:.0f} IOs/query"
            )
        for label, row in pool_report["pools"].items():
            print(
                f"  pool {label} of {pool_report['arena_bytes']} B arena: "
                f"hit rate {row['hit_rate']:.3f}, "
                f"resident {row['resident_bytes']} / {row['capacity_bytes']} B, "
                f"{row['evictions']} evictions"
            )
        verified = {
            "cold_start_identical_results": cold["identical"],
            "backends_identical_results": backends_identical,
            "tuple_floor": tuple_floor,
            **pool_verified,
        }
        print(f"  verified: {verified}")
        return {
            "fixture": fixture["fixture"],
            "workload": {"keywords": KEYWORDS, "l": SIZE_L, "max_results": 5},
            "load": load,
            "cold_start": cold["report"],
            "warm_qps": warm,
            "buffer_pool": pool_report,
            "verified": verified,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(bench_main(__doc__, BASELINE, run_mode, GATES))
