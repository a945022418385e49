"""Cluster benchmark: sharded serving throughput (BENCH_cluster.json).

Measures what ``repro serve --shards N`` buys on one box with a fixed
**per-process** cache budget — the deployment knob sharding actually
controls.  Every worker is allowed the same complete-OS cache capacity;
the consistent-hash ring splits the working set across workers, so N
shards hold N disjoint partitions where one process holds one partition's
worth and thrashes on the rest:

* ``sweep``: a uniform-random size-l stream over a working set chosen to
  *overflow* one worker's cache (the capacity is ~35% of the set).  At 1
  shard most requests pay a complete-OS regeneration; at 4 shards each
  partition fits its worker's cache and requests are memo hits.  The
  headline is ``speedup_4shard_vs_1`` (aggregate QPS ratio), gated by
  ``--check``; hit rates from the merged worker stats are reported so the
  mechanism is visible, not inferred.
* ``mmap_rss``: every worker attaches the *same* precomputed snapshot
  directory, whose arenas are ``np.load(..., mmap_mode="r")`` file-backed
  mappings.  After a warm lap touches the pages, each worker's
  ``/proc/<pid>/smaps`` is read for the snapshot-dir mappings: once two
  or more workers map the snapshot, per-worker private bytes must be ~0
  (read-only mappings never copy; a lone mapper's pages are merely
  *accounted* private), and the summed proportional-set-size must stay
  flat as shards grow — the page
  cache holds one copy no matter how many workers map it, so the
  incremental snapshot RSS of an extra shard is near zero.
* ``kill_recovery``: the same stream at 2 shards while one worker is
  SIGKILLed mid-run.  Accepted requests must stay *correct*: every 200 is
  verified node-for-node against an in-process reference Session, every
  failure must be the pinned 503 body (``wrong`` is required to be 0),
  and the killed shard must answer again within the supervisor's restart
  budget (``recovery_seconds``).

The run self-verifies: every response in every mode is compared against
reference ``Session.size_l`` output — a routing bug that served the wrong
shard's answer would fail the run even without ``--check``, which fails
when the 4-shard speedup drops below half the committed one.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py            # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick \
        --check BENCH_cluster.json --out /tmp/bench_cluster_ci.json
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

from benchlib import Gate, bench_main, measure, spread  # noqa: E402
from repro.cluster import Cluster, ClusterRouter, DatasetSpec  # noqa: E402
from repro.core.options import QueryOptions  # noqa: E402
from repro.session import Session  # noqa: E402

BASELINE = "BENCH_cluster.json"
GATES = (
    Gate("4-shard speedup", "sweep.speedup_4shard_vs_1", floor=True, scale=0.5),
)
SEED = 7
SIZE_L = 30
SHARD_SWEEP = (1, 2, 4)
CLIENT_THREADS = 4
#: Measured passes per shard count; best-of wins.  A single pass is at
#: the mercy of transient CPU contention (N workers + router + client
#: threads share the box), which can halve one point and fake a
#: regression.
REPEATS = 3
#: Per-worker cache capacity as a fraction of the working set: small
#: enough that one worker thrashes, large enough that a 4-way partition
#: (working_set / 4 subjects per worker) fits comfortably.
CACHE_FRACTION = 0.35


def build_reference(quick: bool) -> dict:
    """The working set + ground-truth size-l answers from one Session."""
    # full mode uses a bigger database so a cache miss (complete-OS
    # regeneration, ~3ms) clearly dominates the per-request transport
    # overhead (~0.5ms) — the contrast sharding is supposed to remove
    scale = 0.5 if quick else 3.0
    working_set = 48 if quick else 120
    n_requests = 400 if quick else 1200
    session = Session.from_named("dblp", seed=SEED, scale=scale, cache_size=4096)
    store = session.engine.store
    by_rank = np.argsort(store.array("author"))[::-1][:working_set]
    subjects = [("author", int(row_id)) for row_id in by_rank]
    options = QueryOptions(l=SIZE_L)
    truth = {
        subject: tuple(
            sorted(session.size_l(subject[0], subject[1], options=options).selected_uids)
        )
        for subject in subjects
    }
    return {
        "scale": scale,
        "subjects": subjects,
        "truth": truth,
        "n_requests": n_requests,
        "cache_size": max(4, int(working_set * CACHE_FRACTION)),
        "fixture": {
            "dataset": "dblp",
            "seed": SEED,
            "scale": scale,
            "l": SIZE_L,
            "working_set": working_set,
            "per_worker_cache": max(4, int(working_set * CACHE_FRACTION)),
            "client_threads": CLIENT_THREADS,
        },
    }


def _request_stream(reference: dict, n_requests: int) -> list[tuple[str, int]]:
    """A deterministic uniform-random subject stream (the anti-zipf: every
    subject is equally hot, so capacity — not popularity — decides hits)."""
    rng = np.random.default_rng(SEED)
    subjects = reference["subjects"]
    picks = rng.integers(0, len(subjects), size=n_requests)
    return [subjects[int(i)] for i in picks]


def _drive(
    router,
    stream: list[tuple[str, int]],
    truth: dict,
    *,
    collect_failures: bool = False,
    milestone: tuple[int, threading.Event] | None = None,
) -> dict:
    """Fire the stream from CLIENT_THREADS threads; verify every answer.

    ``milestone=(index, event)`` sets the event once the stream reaches
    that index — how the kill-recovery mode lands its SIGKILL mid-stream
    instead of racing a wall-clock timer against a fast run.
    """
    cursor = {"next": 0}
    lock = threading.Lock()
    ok = [0] * CLIENT_THREADS
    unavailable = [0] * CLIENT_THREADS
    wrong = [0] * CLIENT_THREADS
    latencies: list[list[float]] = [[] for _ in range(CLIENT_THREADS)]

    def worker(slot: int) -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(stream):
                    return
                cursor["next"] = index + 1
            if milestone is not None and index >= milestone[0]:
                milestone[1].set()
            table, row_id = stream[index]
            started = time.perf_counter()
            status, body = router.dispatch_safe(
                "/v1/size-l",
                {
                    "dataset": "dblp",
                    "table": table,
                    "row_id": row_id,
                    "options": {"l": SIZE_L},
                },
            )
            latencies[slot].append(time.perf_counter() - started)
            if status == 200:
                uids = tuple(sorted(body["result"]["selected_uids"]))
                if uids == truth[(table, row_id)]:
                    ok[slot] += 1
                else:
                    wrong[slot] += 1
            elif (
                collect_failures
                and status == 503
                and body.get("error", {}).get("type") == "ShardUnavailableError"
            ):
                unavailable[slot] += 1
            else:
                wrong[slot] += 1

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(CLIENT_THREADS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    flat = [latency for per_thread in latencies for latency in per_thread]
    return {
        "requests": len(stream),
        "ok": sum(ok),
        "unavailable_503": sum(unavailable),
        "wrong": sum(wrong),
        "seconds": elapsed,
        "qps": len(stream) / elapsed,
        "mean_ms": float(np.mean(flat)) * 1e3,
        "p99_ms": float(np.percentile(flat, 99)) * 1e3,
        "latency_ms": spread([latency * 1e3 for latency in flat]),
    }


def bench_sweep(reference: dict) -> dict:
    """Aggregate QPS vs shard count, fixed per-worker cache budget."""
    stream = _request_stream(reference, reference["n_requests"])
    spec = DatasetSpec(
        name="dblp", database="dblp", seed=SEED, scale=reference["scale"]
    )
    points = []
    for shards in SHARD_SWEEP:
        with Cluster(
            [spec],
            shards,
            cache_size=reference["cache_size"],
            startup_timeout=300,
        ) as cluster:
            # one warm lap (each subject once) so the measured pass sees
            # steady-state caches, not cold-start ones
            for table, row_id in reference["subjects"]:
                status, _ = cluster.dispatch_safe(
                    "/v1/size-l",
                    {
                        "dataset": "dblp",
                        "table": table,
                        "row_id": row_id,
                        "options": {"l": SIZE_L},
                    },
                )
                assert status == 200
            _, before = cluster.dispatch_safe("/v1/stats", {"dataset": "dblp"})
            timing, passes = measure(
                lambda: _drive(cluster.router, stream, reference["truth"]),
                REPEATS,
                seconds=lambda driven: driven["seconds"],
            )
            _, after = cluster.dispatch_safe("/v1/stats", {"dataset": "dblp"})
        best = passes[0]  # the fastest pass: the highest QPS
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        point = {
            "shards": shards,
            **best,
            "repeats": REPEATS,
            "timing": timing,
            # correctness is judged over EVERY pass, not just the fastest
            "wrong": sum(driven["wrong"] for driven in passes),
            "all_passes_correct": all(
                driven["wrong"] == 0 and driven["ok"] == driven["requests"]
                for driven in passes
            ),
            "measured_hits": hits,
            "measured_misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
        points.append(point)
        print(
            f"  {shards} shard(s): {point['qps']:.0f} QPS "
            f"(mean {point['mean_ms']:.2f}ms, p99 {point['p99_ms']:.2f}ms, "
            f"hit rate {point['hit_rate'] * 100:.0f}%, "
            f"wrong {point['wrong']})"
        )
    by_shards = {point["shards"]: point for point in points}
    return {
        "points": points,
        "speedup_4shard_vs_1": by_shards[4]["qps"] / by_shards[1]["qps"],
        "speedup_2shard_vs_1": by_shards[2]["qps"] / by_shards[1]["qps"],
    }


def _snapshot_mappings(pid: int, snapshot_dir: Path) -> "dict | None":
    """Aggregate smaps fields over one process's snapshot-dir mappings (kB)."""
    needle = str(snapshot_dir.resolve())
    totals = {
        "rss_kb": 0,
        "pss_kb": 0,
        "private_kb": 0,
        "private_dirty_kb": 0,
        "shared_kb": 0,
    }
    try:
        text = Path(f"/proc/{pid}/smaps").read_text(encoding="utf-8")
    except OSError:
        return None
    in_snapshot = False
    for line in text.splitlines():
        if line.endswith("kB") and ":" in line:
            if not in_snapshot:
                continue
            key, _, rest = line.partition(":")
            kb = int(rest.split()[0])
            if key == "Rss":
                totals["rss_kb"] += kb
            elif key == "Pss":
                totals["pss_kb"] += kb
            elif key in ("Private_Clean", "Private_Dirty"):
                totals["private_kb"] += kb
                if key == "Private_Dirty":
                    totals["private_dirty_kb"] += kb
            elif key in ("Shared_Clean", "Shared_Dirty"):
                totals["shared_kb"] += kb
        elif not line.startswith("VmFlags"):
            # a mapping header: does it name a file inside the snapshot?
            in_snapshot = needle in line
    return totals


def bench_mmap_rss(reference: dict) -> dict:
    """Per-worker memory cost of the shared mmap snapshot, by shard count."""
    import shutil
    import tempfile

    from repro.persist import precompute_snapshot

    # one snapshot directory, attached by every worker of every cluster
    session = Session.from_named("dblp", seed=SEED, scale=reference["scale"])
    snapshot_dir = Path(tempfile.mkdtemp(prefix="bench-mmap-")) / "snapshot"
    precompute_snapshot(session.engine, reference["subjects"], snapshot_dir)
    spec = DatasetSpec(
        name="dblp",
        database="dblp",
        seed=SEED,
        scale=reference["scale"],
        snapshot=str(snapshot_dir),
    )
    points = []
    try:
        for shards in SHARD_SWEEP:
            with Cluster(
                [spec], shards, cache_size=4, startup_timeout=300
            ) as cluster:
                # touch the arenas: one size-l per subject faults the
                # snapshot pages in on whichever worker owns the subject
                for table, row_id in reference["subjects"]:
                    status, _ = cluster.dispatch_safe(
                        "/v1/size-l",
                        {
                            "dataset": "dblp",
                            "table": table,
                            "row_id": row_id,
                            "options": {"l": SIZE_L},
                        },
                    )
                    assert status == 200
                workers = [
                    _snapshot_mappings(entry["pid"], snapshot_dir)
                    for entry in cluster.supervisor.describe()
                    if entry["pid"] is not None
                ]
            workers = [w for w in workers if w is not None]
            point = {
                "shards": shards,
                "workers_sampled": len(workers),
                "pss_total_kb": sum(w["pss_kb"] for w in workers),
                "rss_total_kb": sum(w["rss_kb"] for w in workers),
                "private_max_kb": max((w["private_kb"] for w in workers), default=0),
                # dirty private pages would be actual per-worker copies;
                # clean "private" is just a file page with a single mapper
                "private_dirty_max_kb": max(
                    (w["private_dirty_kb"] for w in workers), default=0
                ),
            }
            points.append(point)
            print(
                f"  {shards} shard(s): snapshot pss {point['pss_total_kb']} kB "
                f"total, worst private-dirty {point['private_dirty_max_kb']} kB"
            )
    finally:
        shutil.rmtree(snapshot_dir.parent, ignore_errors=True)
    by_shards = {point["shards"]: point for point in points}
    return {
        "points": points,
        "smaps_readable": all(
            point["workers_sampled"] == point["shards"] for point in points
        ),
        # the headline: the unique (proportional) snapshot footprint of a
        # 4-worker cluster vs one worker — ~1.0 means one page-cache copy
        "pss_ratio_4shard_vs_1": (
            by_shards[4]["pss_total_kb"] / by_shards[1]["pss_total_kb"]
            if by_shards[1]["pss_total_kb"]
            else None
        ),
    }


def bench_kill_recovery(reference: dict) -> dict:
    """SIGKILL one of two workers mid-stream; nothing may be silently wrong."""
    stream = _request_stream(reference, min(600, reference["n_requests"]))
    spec = DatasetSpec(
        name="dblp", database="dblp", seed=SEED, scale=reference["scale"]
    )
    with Cluster(
        [spec], 2, cache_size=reference["cache_size"], startup_timeout=300
    ) as cluster:
        # impatient router: requests racing the restart surface as pinned
        # 503s instead of waiting it out — that is the failure mode under test
        impatient = ClusterRouter(cluster.supervisor, request_timeout=1.0)
        victim = 0
        result: dict = {}
        reached = threading.Event()

        def assassin() -> None:
            reached.wait(timeout=120)  # fire 20% into the stream, not on a clock
            cluster.supervisor.kill(victim)
            killed_at = time.perf_counter()
            # a subject owned by the victim answers again == shard recovered
            probe = next(
                subject
                for subject in reference["subjects"]
                if cluster.router.ring.owner("dblp", *subject) == victim
            )
            while True:
                status, _ = impatient.dispatch_safe(
                    "/v1/size-l",
                    {
                        "dataset": "dblp",
                        "table": probe[0],
                        "row_id": probe[1],
                        "options": {"l": SIZE_L},
                    },
                )
                if status == 200:
                    result["recovery_seconds"] = time.perf_counter() - killed_at
                    return
                time.sleep(0.05)

        killer = threading.Thread(target=assassin)
        killer.start()
        driven = _drive(
            impatient,
            stream,
            reference["truth"],
            collect_failures=True,
            milestone=(len(stream) // 5, reached),
        )
        killer.join(timeout=120)
        impatient.close()
        restarted = cluster.supervisor.restarts(victim)
    outcome = {
        **driven,
        "recovery_seconds": result.get("recovery_seconds"),
        "worker_restarts": restarted,
    }
    print(
        f"  kill-recovery: {outcome['ok']} ok / "
        f"{outcome['unavailable_503']} pinned 503 / {outcome['wrong']} wrong; "
        f"shard back in {outcome['recovery_seconds']:.2f}s "
        f"({restarted} restart(s))"
    )
    return outcome


def run_mode(quick: bool) -> dict:
    reference = build_reference(quick)
    print(
        f"  working set {reference['fixture']['working_set']} subjects, "
        f"per-worker cache {reference['cache_size']}, l={SIZE_L}"
    )
    sweep = bench_sweep(reference)
    mmap_rss = bench_mmap_rss(reference)
    recovery = bench_kill_recovery(reference)
    speedup = sweep["speedup_4shard_vs_1"]
    print(f"  speedup at 4 shards vs 1: {speedup:.2f}x")
    smaps_ok = mmap_rss["smaps_readable"]
    verified = {
        "sweep_all_correct": all(
            point["all_passes_correct"] for point in sweep["points"]
        ),
        "sharding_partitions_the_cache": (
            sweep["points"][-1]["hit_rate"] > sweep["points"][0]["hit_rate"]
        ),
        "recovery_no_wrong_answers": recovery["wrong"] == 0,
        "recovery_all_accounted": (
            recovery["ok"] + recovery["unavailable_503"] == recovery["requests"]
        ),
        "recovered_within_budget": (
            recovery["recovery_seconds"] is not None
            and recovery["recovery_seconds"] < 30.0
        ),
        # quick mode only sanity-checks that sharding helps at all (the
        # small fixture + shared CI runners make the exact ratio noisy);
        # the real quick-mode gate is --check against the committed
        # baseline.  Full mode owns the headline >= 3x claim.
        "speedup_at_least_3x": speedup >= (1.2 if quick else 3.0),
        # read-only mmap arenas never fault private copies.  Judged on
        # the multi-worker points only: with a single mapper the kernel
        # *accounts* the page-cache pages as that process's private set,
        # so the 1-shard number is ownership bookkeeping, not a copy.
        "mmap_no_per_worker_copies": (not smaps_ok) or all(
            point["private_max_kb"] <= 64
            for point in mmap_rss["points"]
            if point["shards"] > 1
        ),
        # 4 workers mapping one snapshot must cost ~one page-cache copy,
        # not four: the summed PSS may not grow materially with shards
        "mmap_one_page_cache_copy": (not smaps_ok) or (
            mmap_rss["pss_ratio_4shard_vs_1"] is not None
            and mmap_rss["pss_ratio_4shard_vs_1"] <= 1.5
        ),
    }
    return {
        "fixture": reference["fixture"],
        "sweep": sweep,
        "mmap_rss": mmap_rss,
        "kill_recovery": recovery,
        "verified": verified,
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(__doc__, BASELINE, run_mode, GATES))
