"""Chaos benchmark: availability under faults (BENCH_chaos.json).

Quantifies what the reliability tier (PR 7) actually buys, against a live
3-shard cluster, under three seeded fault regimes:

* ``fault_sweep``: the router's transport frames fail with probability
  ``rate`` (both directions, deterministic seeded schedule) while a
  uniform size-l stream runs.  The retry layer must hold **availability**
  (200s / requests) at >= 95% for the 5% fault rate — and every 200 must
  still verify against the fault-free reference (``wrong == 0`` is a hard
  gate at every rate; a wrong answer is worse than an error).
* ``deadline_504``: one worker is SIGKILLed, then requests owned by the
  dead shard run with ``deadline_ms=100``.  The pinned 504 must land in
  roughly the budget (not the router's 30s flat timeout) and its body
  must be **byte-identical** to the 504 a single-process deployment
  produces for the same blown budget — clients cannot tell topologies
  apart even when failing.
* ``degraded``: the same dead-shard cluster queried with
  ``allow_partial=true`` through a short-patience router.  Responses must
  stay 200 (availability gate), be explicitly marked ``degraded`` with
  the missing shard listed, and every entry they *do* carry must match
  the reference at its global rank.

The run self-verifies: a wrong answer in any scenario fails the run even
without ``--check``, which fails when availability at the 5% fault rate
drops more than 3 points below the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick \
        --check BENCH_chaos.json --out /tmp/bench_chaos_ci.json
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from benchlib import Gate, bench_main, spread  # noqa: E402
from repro.cluster import Cluster, ClusterRouter, DatasetSpec  # noqa: E402
from repro.reliability import FaultPlan, FaultRule, install, uninstall  # noqa: E402
from repro.service.deployment import Deployment  # noqa: E402
from repro.service.dispatch import ServiceDispatcher  # noqa: E402

BASELINE = "BENCH_chaos.json"
GATES = (
    Gate("availability at 5% faults", "fault_sweep.availability_at_5pct", floor=True, offset=-0.03),
)
SEED = 7
SIZE_L = 30
SHARDS = 3
CLIENT_THREADS = 4
FAULT_RATES = (0.05, 0.10)
KEYWORDS = ["Faloutsos"]
QUERY_OPTIONS = {"l": 8}

_STABLE = (
    "rank",
    "table",
    "row_id",
    "match_importance",
    "importance",
    "l",
    "algorithm",
    "selected_uids",
    "rendered",
)


def _stable(entry: dict) -> tuple:
    return tuple(
        tuple(entry[key]) if isinstance(entry[key], list) else entry[key]
        for key in _STABLE
    )


def build_reference(quick: bool) -> dict:
    """Working set, truth, and the single-process topology twin."""
    scale = 0.5 if quick else 1.0
    working_set = 48 if quick else 96
    n_requests = 150 if quick else 450
    deployment = Deployment().add(
        "dblp", named="dblp", seed=SEED, scale=scale, cache_size=4096
    )
    dispatcher = ServiceDispatcher(deployment)
    store = deployment.session("dblp").engine.store
    by_rank = np.argsort(store.array("author"))[::-1][:working_set]
    subjects = [("author", int(row_id)) for row_id in by_rank]
    truth = {}
    for table, row_id in subjects:
        status, body = dispatcher.dispatch_safe(
            "/v1/size-l",
            {
                "dataset": "dblp",
                "table": table,
                "row_id": row_id,
                "options": {"l": SIZE_L},
            },
        )
        assert status == 200, body
        truth[(table, row_id)] = tuple(sorted(body["result"]["selected_uids"]))
    status, query_truth = dispatcher.dispatch_safe(
        "/v1/query",
        {"dataset": "dblp", "keywords": KEYWORDS, "options": QUERY_OPTIONS},
    )
    assert status == 200, query_truth
    return {
        "scale": scale,
        "subjects": subjects,
        "truth": truth,
        "query_truth": query_truth,
        "n_requests": n_requests,
        "dispatcher": dispatcher,
        "fixture": {
            "dataset": "dblp",
            "seed": SEED,
            "scale": scale,
            "l": SIZE_L,
            "shards": SHARDS,
            "working_set": working_set,
            "client_threads": CLIENT_THREADS,
            "fault_rates": list(FAULT_RATES),
        },
    }


def _request_stream(reference: dict, n_requests: int) -> list[tuple[str, int]]:
    rng = np.random.default_rng(SEED)
    subjects = reference["subjects"]
    picks = rng.integers(0, len(subjects), size=n_requests)
    return [subjects[int(i)] for i in picks]


def _drive(router, stream: list[tuple[str, int]], truth: dict) -> dict:
    """Fire the stream from CLIENT_THREADS threads; verify every 200.

    Failures are acceptable only in the pinned retryable shapes (503
    ``ShardUnavailableError``/``BackendIOError``, 504
    ``DeadlineExceededError``); anything else — above all a 200 whose
    answer differs from the reference — counts as ``wrong``.
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
            elif status in (503, 504) and body.get("error", {}).get("type") in (
                "ShardUnavailableError",
                "BackendIOError",
                "DeadlineExceededError",
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
    total = len(stream)
    return {
        "requests": total,
        "ok": sum(ok),
        "unavailable": sum(unavailable),
        "wrong": sum(wrong),
        "availability": sum(ok) / total,
        "seconds": elapsed,
        "qps": total / elapsed,
        "mean_ms": float(np.mean(flat)) * 1e3,
        "p99_ms": float(np.percentile(flat, 99)) * 1e3,
        "latency_ms": spread([latency * 1e3 for latency in flat]),
    }


def _wait_all_ready(cluster: Cluster, timeout: float = 300.0) -> None:
    deadline = time.monotonic() + timeout
    while cluster.supervisor.ready_count() < cluster.shards:
        if time.monotonic() > deadline:
            raise RuntimeError("cluster did not recover in time")
        time.sleep(0.05)


def bench_fault_sweep(cluster: Cluster, reference: dict) -> dict:
    """Availability and latency under seeded transport-frame faults."""
    stream = _request_stream(reference, reference["n_requests"])
    # one fault-free warm lap: steady-state caches, and a baseline that
    # proves the stream itself is 100% servable
    baseline = _drive(cluster.router, stream, reference["truth"])
    points = []
    for rate in FAULT_RATES:
        install(
            FaultPlan(
                [
                    FaultRule(site="transport.send", probability=rate),
                    FaultRule(site="transport.recv", probability=rate),
                ],
                seed=SEED,
            )
        )
        try:
            driven = _drive(cluster.router, stream, reference["truth"])
        finally:
            uninstall()
        point = {"rate": rate, **driven}
        points.append(point)
        print(
            f"  {rate * 100:.0f}% frame faults: availability "
            f"{point['availability'] * 100:.1f}% "
            f"({point['ok']}/{point['requests']}, wrong {point['wrong']}, "
            f"mean {point['mean_ms']:.2f}ms, p99 {point['p99_ms']:.2f}ms)"
        )
        _wait_all_ready(cluster)  # a ping-strike restart must not leak
    return {
        "baseline": baseline,
        "points": points,
        "availability_at_5pct": points[0]["availability"],
    }


def bench_deadline_504(cluster: Cluster, reference: dict, quick: bool) -> dict:
    """The pinned 504 against a dead shard, twinned across topologies."""
    trials = 10 if quick else 20
    victim = 1
    probe = next(
        subject
        for subject in reference["subjects"]
        if cluster.router.ring.owner("dblp", *subject) == victim
    )
    payload = {
        "dataset": "dblp",
        "table": probe[0],
        "row_id": probe[1],
        "options": {"l": SIZE_L},
        "deadline_ms": 100,
    }
    cluster_latencies = []
    cluster_body = None
    try:
        for _ in range(trials):
            # re-kill before every trial: the supervisor restarts fast
            # enough that a single kill would let later trials hit a
            # recovered shard and measure the wrong thing
            cluster.supervisor.kill(victim)
            started = time.perf_counter()
            status, body = cluster.dispatch_safe("/v1/size-l", payload)
            cluster_latencies.append(time.perf_counter() - started)
            assert status == 504, (status, body)
            cluster_body = body
    finally:
        _wait_all_ready(cluster)

    # the single-process twin: the same 100ms budget blown by slow IO
    dispatcher = reference["dispatcher"]
    # force complete-OS generation through the database backend, which
    # the disk tier never serves: every trial pays per-node IO, so the
    # delay fault below reliably blows the budget regardless of scale or
    # warm state
    single_payload = {
        "dataset": "dblp",
        "table": probe[0],
        "row_id": probe[1],
        "options": {"l": SIZE_L, "source": "complete", "backend": "database"},
        "deadline_ms": 100,
    }
    install(FaultPlan([FaultRule(site="db.io", kind="delay", delay_seconds=0.02)]))
    single_latencies = []
    single_body = None
    try:
        for _ in range(trials):
            # a 504 caches nothing, but earlier subjects might: start cold
            dispatcher.dispatch_safe("/v1/admin/invalidate", {"dataset": "dblp"})
            started = time.perf_counter()
            status, body = dispatcher.dispatch_safe("/v1/size-l", single_payload)
            single_latencies.append(time.perf_counter() - started)
            assert status == 504, (status, body)
            single_body = body
    finally:
        uninstall()
        dispatcher.dispatch_safe("/v1/admin/invalidate", {"dataset": "dblp"})

    identical = json.dumps(cluster_body, sort_keys=True) == json.dumps(
        single_body, sort_keys=True
    )
    outcome = {
        "budget_ms": 100,
        "trials": trials,
        "cluster_p50_ms": float(np.percentile(cluster_latencies, 50)) * 1e3,
        "cluster_p99_ms": float(np.percentile(cluster_latencies, 99)) * 1e3,
        "single_p50_ms": float(np.percentile(single_latencies, 50)) * 1e3,
        "single_p99_ms": float(np.percentile(single_latencies, 99)) * 1e3,
        "cluster_latency_ms": spread([t * 1e3 for t in cluster_latencies]),
        "single_latency_ms": spread([t * 1e3 for t in single_latencies]),
        "bodies_byte_identical": identical,
    }
    print(
        f"  deadline 100ms vs dead shard: cluster p50 "
        f"{outcome['cluster_p50_ms']:.0f}ms, single-process p50 "
        f"{outcome['single_p50_ms']:.0f}ms, bodies identical: {identical}"
    )
    return outcome


def bench_degraded(cluster: Cluster, reference: dict, quick: bool) -> dict:
    """allow_partial availability while one shard is down."""
    trials = 30 if quick else 60
    truth = reference["query_truth"]
    truth_by_rank = {e["rank"]: _stable(e) for e in truth["results"]}
    router = ClusterRouter(
        cluster.supervisor,
        request_timeout=5.0,
        retry_interval=0.02,
        partial_patience=0.3,
    )
    victim = 2
    payload = {
        "dataset": "dblp",
        "keywords": KEYWORDS,
        "options": QUERY_OPTIONS,
        "allow_partial": True,
    }
    cluster.supervisor.kill(victim)
    ok = degraded = wrong = 0
    latencies = []
    try:
        for _ in range(trials):
            started = time.perf_counter()
            status, body = router.dispatch_safe("/v1/query", payload)
            latencies.append(time.perf_counter() - started)
            if status != 200:
                continue
            entries_match = all(
                _stable(entry) == truth_by_rank.get(entry["rank"])
                for entry in body["results"]
            )
            if not entries_match or body["total_matches"] != truth["total_matches"]:
                wrong += 1
            elif body.get("degraded"):
                if body.get("missing_shards") == [victim]:
                    degraded += 1
                else:
                    wrong += 1
            else:
                ok += 1
    finally:
        router.close()
        _wait_all_ready(cluster)

    # healthy again: the same flag must now yield a full, unmarked answer
    status, body = cluster.dispatch_safe("/v1/query", payload)
    recovered_full = (
        status == 200
        and "degraded" not in body
        and [_stable(e) for e in body["results"]]
        == [_stable(e) for e in truth["results"]]
    )
    outcome = {
        "trials": trials,
        "full_200": ok,
        "degraded_200": degraded,
        "wrong": wrong,
        "availability": (ok + degraded) / trials,
        "mean_ms": float(np.mean(latencies)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "latency_ms": spread([latency * 1e3 for latency in latencies]),
        "recovered_full_answer": recovered_full,
    }
    print(
        f"  degraded mode: {degraded} degraded + {ok} full of {trials} "
        f"(availability {outcome['availability'] * 100:.1f}%, wrong {wrong}, "
        f"mean {outcome['mean_ms']:.1f}ms)"
    )
    return outcome


def run_mode(quick: bool) -> dict:
    reference = build_reference(quick)
    print(
        f"  working set {reference['fixture']['working_set']} subjects, "
        f"{SHARDS} shards, l={SIZE_L}"
    )
    spec = DatasetSpec(
        name="dblp", database="dblp", seed=SEED, scale=reference["scale"]
    )
    with Cluster([spec], SHARDS, cache_size=4096, startup_timeout=300) as cluster:
        sweep = bench_fault_sweep(cluster, reference)
        deadline = bench_deadline_504(cluster, reference, quick)
        degraded = bench_degraded(cluster, reference, quick)
    verified = {
        "baseline_all_ok": sweep["baseline"]["ok"] == sweep["baseline"]["requests"],
        "sweep_no_wrong_answers": all(p["wrong"] == 0 for p in sweep["points"]),
        "available_at_5pct_faults": sweep["availability_at_5pct"] >= 0.95,
        "deadline_bodies_byte_identical": deadline["bodies_byte_identical"],
        # the 100ms budget — not a flat timeout — must set the clock on
        # both topologies (a lenient 500ms bound; the JSON has exact p50s)
        "deadline_504_is_fast": (
            deadline["cluster_p50_ms"] < 500.0 and deadline["single_p50_ms"] < 500.0
        ),
        "degraded_no_wrong_answers": degraded["wrong"] == 0,
        "degraded_available": degraded["availability"] >= 0.95,
        "degraded_recovers_to_full": degraded["recovered_full_answer"],
    }
    return {
        "fixture": reference["fixture"],
        "fault_sweep": sweep,
        "deadline_504": deadline,
        "degraded": degraded,
        "verified": verified,
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(__doc__, BASELINE, run_mode, GATES))
