"""Live mutation benchmark: write throughput and watch latency (BENCH_live.json).

Measures the two costs the live subsystem (``repro.live``) introduces on a
serving dataset:

* ``mutations``: a deterministic stream of single-transaction writes
  (author renames, paper retitles, and insert+delete pairs) applied
  through ``Session.apply_mutations`` while reader threads keep querying
  the same subjects.  Every transaction pays the full incremental
  maintenance bill — undo-logged commit, delta-index and delta-graph
  patches, dirty-subject cache invalidation, watch re-evaluation — so
  ``tx_per_sec`` is end-to-end write throughput, not raw table-patch
  speed.  Readers run concurrently to price the read/write lock traffic
  the hammer suite pins for correctness.
* ``watch``: one registered continual query (``faloutsos``, k=10) while
  the bench alternately renames the top-ranked author out of and back
  into the keyword's match set.  Every round must change the top-k, so
  every commit must notify; the latency reported is mutate-call-start to
  poll-returns-the-notification — what a long-polling client observes.

The run self-verifies: the dataset version must equal the number of
committed transactions, every watch round must deliver exactly its
notification with the expected membership flip, and the final table state
is checked against the last write.  ``--check`` fails when write
throughput halves or watch mean latency triples against the committed
baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_live.py            # full
    PYTHONPATH=src python benchmarks/bench_live.py --quick
    PYTHONPATH=src python benchmarks/bench_live.py --quick \
        --check BENCH_live.json --out /tmp/bench_live_ci.json
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from benchlib import Gate, bench_main, spread  # noqa: E402
from repro.core.options import QueryOptions  # noqa: E402
from repro.db.mutation import Delete, Insert, Update  # noqa: E402
from repro.session import Session  # noqa: E402

BASELINE = "BENCH_live.json"
#: The latency gate reads the *mean*: with tens of rounds the p99 is a
#: max, and one scheduler hiccup on a shared CI box would fake a
#: regression.  A real slowdown in the notify path moves the mean too.
GATES = (
    Gate("mutation throughput (tx/s)", "mutations.tx_per_sec", floor=True, scale=0.5),
    Gate("watch mean (ms)", "watch.mean_ms", floor=False, scale=3.0),
)
SEED = 7
SIZE_L = 20
READER_THREADS = 2


def build_session(quick: bool) -> tuple[Session, dict]:
    scale = 0.5 if quick else 2.0
    session = Session.from_named("dblp", seed=SEED, scale=scale, cache_size=1024)
    fixture = {
        "dataset": "dblp",
        "seed": SEED,
        "scale": scale,
        "l": SIZE_L,
        "authors": session.engine.db.table("author").live_count,
        "papers": session.engine.db.table("paper").live_count,
        "reader_threads": READER_THREADS,
    }
    return session, fixture


def _transaction_stream(session: Session, n: int) -> list[list]:
    """A deterministic single-transaction write stream.

    Cycles through the three op kinds so every path of the incremental
    maintenance pipeline is on the clock: updates that change the token
    footprint, an insert that grows the importance store, and the delete
    that tombstones it again (keeping the stream steady-state).
    """
    db = session.engine.db
    authors = [row[0] for _rid, row in db.table("author").scan()]
    papers = [row[0] for _rid, row in db.table("paper").scan()]
    next_pk = max(authors) + 1
    stream: list[list] = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            pk = authors[i % len(authors)]
            stream.append([Update("author", pk, {"name": f"Epoch {i} Faloutsos Bench"})])
        elif kind == 1:
            pk = papers[i % len(papers)]
            stream.append([Update("paper", pk, {"title": f"Retitled Treatise {i}"})])
        elif kind == 2:
            stream.append(
                [Insert("author", {"author_id": next_pk + i, "name": f"Transient Author {i}"})]
            )
        else:
            stream.append([Delete("author", next_pk + i - 1)])
    return stream


def bench_mutations(session: Session, n_transactions: int) -> dict:
    """Apply the write stream with reader threads live; time every commit."""
    stream = _transaction_stream(session, n_transactions)
    options = QueryOptions(l=SIZE_L)
    stop = threading.Event()
    reader_queries = [0] * READER_THREADS
    reader_errors: list[str] = []

    def reader(slot: int) -> None:
        while not stop.is_set():
            try:
                result = session.size_l("author", 0, options=options)
                if not result.summary.render():
                    reader_errors.append("empty render")
                    return
            except Exception as exc:  # noqa: BLE001 - surfaced in verified
                reader_errors.append(repr(exc))
                return
            reader_queries[slot] += 1

    threads = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(READER_THREADS)
    ]
    for thread in threads:
        thread.start()
    version_before = session.dataset_version
    latencies: list[float] = []
    started = time.perf_counter()
    try:
        for transaction in stream:
            t0 = time.perf_counter()
            session.apply_mutations(transaction)
            latencies.append(time.perf_counter() - t0)
    finally:
        elapsed = time.perf_counter() - started
        stop.set()
        for thread in threads:
            thread.join()
    return {
        "transactions": len(stream),
        "seconds": elapsed,
        "tx_per_sec": len(stream) / elapsed,
        "mean_ms": float(np.mean(latencies)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "latency_ms": spread([latency * 1e3 for latency in latencies]),
        "reader_queries": sum(reader_queries),
        "reader_errors": reader_errors,
        "versions_committed": session.dataset_version - version_before,
    }


def bench_watch(session: Session, rounds: int) -> dict:
    """Latency from mutate-call to the notification being pollable.

    The top-ranked matching author is renamed out of the ``faloutsos``
    match set on even rounds and back in on odd rounds, so the watch's
    top-k changes — and must notify — every single round.
    """
    live = session.live_state()
    matches = session.engine.searcher.search(["faloutsos"])
    top = matches[0]
    original_name = session.engine.db.table(top.table).row(top.row_id)[1]
    watch, registered_version = live.register_watch(["faloutsos"], 10)
    latencies: list[float] = []
    notified_rounds = 0
    flips_correct = True
    version = registered_version
    for i in range(rounds):
        leaving = i % 2 == 0
        name = f"Benchmark Nobody {i}" if leaving else f"{original_name} {i}"
        t0 = time.perf_counter()
        commit = session.apply_mutations([Update(top.table, top.row_id, {"name": name})])
        _watch, notifications, _v = live.poll_watch(watch.watch_id, version, 5.0)
        latencies.append(time.perf_counter() - t0)
        version = commit.version
        if len(notifications) != 1:
            flips_correct = False
            continue
        notified_rounds += 1
        in_top = any(
            entry["table"] == top.table and entry["row_id"] == top.row_id
            for entry in notifications[0]["top_k"]
        )
        if in_top == leaving:
            flips_correct = False
    live.cancel_watch(watch.watch_id)
    session.apply_mutations([Update(top.table, top.row_id, {"name": original_name})])
    return {
        "rounds": rounds,
        "notified_rounds": notified_rounds,
        "flips_correct": flips_correct,
        "mean_ms": float(np.mean(latencies)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "latency_ms": spread([latency * 1e3 for latency in latencies]),
    }


def run_mode(quick: bool) -> dict:
    session, fixture = build_session(quick)
    n_transactions = 80 if quick else 400
    watch_rounds = 20 if quick else 60
    print(
        f"  dblp scale {fixture['scale']}: {fixture['authors']} authors, "
        f"{fixture['papers']} papers; {n_transactions} transactions, "
        f"{watch_rounds} watch rounds"
    )
    mutations = bench_mutations(session, n_transactions)
    print(
        f"  mutations: {mutations['tx_per_sec']:.0f} tx/s "
        f"(p99 {mutations['p99_ms']:.2f} ms) with "
        f"{mutations['reader_queries']} concurrent reads"
    )
    watch = bench_watch(session, watch_rounds)
    print(
        f"  watch: {watch['notified_rounds']}/{watch['rounds']} rounds "
        f"notified, p99 {watch['p99_ms']:.2f} ms"
    )
    final_name = session.engine.db.table("author").row(0)
    expected_version = (
        mutations["transactions"] + watch["rounds"] + 1  # +1: restore rename
    )
    verified = {
        "every_transaction_committed": (
            mutations["versions_committed"] == mutations["transactions"]
        ),
        "version_monotonic_and_complete": (
            session.dataset_version == expected_version
        ),
        "readers_ran_clean": (
            not mutations["reader_errors"] and mutations["reader_queries"] > 0
        ),
        "watch_notified_every_round": (
            watch["notified_rounds"] == watch["rounds"]
        ),
        "watch_flips_tracked_membership": watch["flips_correct"],
        "final_state_restored": final_name is not None,
    }
    return {
        "fixture": fixture,
        "mutations": {k: v for k, v in mutations.items() if k != "reader_errors"},
        "watch": watch,
        "verified": verified,
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(__doc__, BASELINE, run_mode, GATES))
