"""Service-layer benchmark: wire-protocol overhead (BENCH_service.json).

Measures what a request pays for crossing the :mod:`repro.service`
surface instead of calling the Session directly — the cost every future
transport inherits:

* ``dispatch``: a warm zipfian keyword-query stream served twice — once
  as direct ``Session.keyword_query`` calls, once as full wire requests
  (encode request dict → ``ServiceDispatcher.dispatch`` → encoded
  response dict).  The difference is the per-request DTO-codec + dispatch
  overhead; the gate regresses ``overhead_ratio`` (service time / direct
  time), a within-run ratio so shared-runner noise cancels out.
* ``middleware``: the same warm stream through the bare dispatcher, the
  disarmed pipeline and the fully armed one; the gates regress the
  disarmed and armed ratios to the bare dispatcher.
* ``codec``: the pure codec microbench — ``decode(encode(request))``
  round-trips per second, no engine behind it.
* ``http_smoke``: boots the real ``repro serve`` CLI as a subprocess on
  an ephemeral port, pages one keyword query through ``/v1/query`` across
  cursor requests, and checks the union against the direct results.
  Latency is reported, not gated (it includes socket + process noise).

Each warm pass is the best of ``REPEATS``, with the spread beside it.
The run self-verifies: the service-path results must be node-for-node
identical to the direct ones, and the paged union must equal the unpaged
result list — a silent divergence fails the run even without ``--check``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick
    PYTHONPATH=src python benchmarks/bench_service.py --quick \
        --check BENCH_service.json --out /tmp/bench_service_ci.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from benchlib import Gate, bench_main, measure  # noqa: E402
from repro.core.options import QueryOptions  # noqa: E402
from repro.datasets.dblp import DBLPConfig, generate_dblp  # noqa: E402
from repro.service import Deployment, ServiceDispatcher  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    QueryRequest,
    decode_query_request,
    encode_request,
)
from repro.session import Session  # noqa: E402

BASELINE = "BENCH_service.json"
#: The dispatch ratio may at most double.  The middleware gates are
#: absolute slack: the stack's share of a warm request may grow by at
#: most half a raw request over the committed ratio — tight enough to
#: catch a real per-request regression, loose enough for shared-runner
#: noise.
GATES = (
    Gate("service/direct overhead ratio", "dispatch.overhead_ratio", floor=False, scale=2.0),
    Gate("middleware disarmed ratio", "middleware.disarmed_ratio", floor=False, offset=0.5),
    Gate("middleware armed ratio", "middleware.armed_ratio", floor=False, offset=0.5),
)
SIZE_L = 10
ZIPF_A = 1.2
REPEATS = 3  # best-of filter against scheduler noise (as the other benches)


def build_workload(quick: bool) -> dict:
    """One dataset + a deterministic zipfian stream of author queries."""
    if quick:
        config = DBLPConfig(
            n_authors=120, n_papers=280, mean_citations_per_paper=5.0, seed=7
        )
        n_subjects, n_queries = 12, 150
    else:
        config = DBLPConfig(seed=7)  # the bench-scale defaults (300 / 800)
        n_subjects, n_queries = 40, 600

    dataset = generate_dblp(config)
    session = Session.from_dataset(dataset, cache_size=256)
    store = session.engine.store
    by_rank = np.argsort(store.array("author"))[::-1][:n_subjects]
    author = dataset.db.table("author")
    name_idx = author.schema.column_index("name")
    names = [str(author.row(int(row))[name_idx]) for row in by_rank]
    rng = np.random.default_rng(7)
    ranks = np.minimum(rng.zipf(ZIPF_A, size=n_queries) - 1, n_subjects - 1)
    stream = [names[int(rank)] for rank in ranks]
    return {
        "session": session,
        "stream": stream,
        "fixture": {
            "dataset": "synthetic-dblp",
            "seed": config.seed,
            "n_authors": config.n_authors,
            "n_papers": config.n_papers,
        },
        "workload": {"n_queries": n_queries, "zipf_a": ZIPF_A, "l": SIZE_L},
    }


def _result_keys(entries) -> list[tuple[str, int, frozenset]]:
    return [
        (e.match.table, e.match.row_id, frozenset(e.result.selected_uids))
        for e in entries
    ]


def _wire_keys(body: dict) -> list[tuple[str, int, frozenset]]:
    return [
        (r["table"], r["row_id"], frozenset(r["selected_uids"]))
        for r in body["results"]
    ]


def bench_dispatch(session: Session, stream: list[str]) -> dict:
    """Direct warm calls vs the full dict-in/dict-out dispatch path."""
    deployment = Deployment().add_session("dblp", session)
    dispatcher = ServiceDispatcher(deployment)
    options = QueryOptions(l=SIZE_L)
    wire_options = options.normalized().as_dict()

    # Warm every subject in the stream once so both measured passes pay
    # cache hits — what is left over IS the serve-path overhead.
    for keywords in set(stream):
        session.keyword_query(keywords, options=options)

    def run_direct() -> list:
        return [
            _result_keys(session.keyword_query(kw, options=options))
            for kw in stream
        ]

    def run_service() -> list:
        outcomes = []
        for keywords in stream:
            body = dispatcher.dispatch(
                "/v1/query",
                {
                    "dataset": "dblp",
                    "keywords": [keywords],
                    "options": wire_options,
                },
            )
            outcomes.append(_wire_keys(body))
        return outcomes

    direct_timing, direct_runs = measure(run_direct, REPEATS)
    service_timing, service_runs = measure(run_service, REPEATS)
    direct_seconds, service_seconds = direct_timing["min"], service_timing["min"]
    identical = direct_runs[0] == service_runs[0]
    n = len(stream)
    overhead_us = (service_seconds - direct_seconds) / n * 1e6
    return {
        "n_requests": n,
        "direct_seconds": direct_seconds,
        "service_seconds": service_seconds,
        "direct_us_per_request": direct_seconds / n * 1e6,
        "service_us_per_request": service_seconds / n * 1e6,
        "overhead_us_per_request": overhead_us,
        "overhead_ratio": service_seconds / direct_seconds,
        "identical_results": identical,
        "direct_timing": direct_timing,
        "service_timing": service_timing,
    }


def bench_middleware(session: Session, stream: list[str]) -> dict:
    """Per-warm-request cost of the PR-8 pipeline, disarmed and armed.

    Three passes over the same warm stream: the bare dispatcher, the
    disarmed pipeline (context + metrics only — the default ``repro
    serve`` stack), and a fully armed stack (token auth + rate limiter +
    concurrency quota + access log to ``/dev/null``).  The deltas are the
    microseconds every request pays for each tier; the gate regresses the
    within-run ratios so runner noise cancels out.
    """
    from repro.service import MiddlewareConfig, RequestContext, build_pipeline

    deployment = Deployment().add_session("dblp", session)
    dispatcher = ServiceDispatcher(deployment)
    options = QueryOptions(l=SIZE_L)
    wire_options = options.normalized().as_dict()
    for keywords in set(stream):
        session.keyword_query(keywords, options=options)
    payloads = [
        {"dataset": "dblp", "keywords": [kw], "options": wire_options}
        for kw in stream
    ]

    def run_raw() -> list:
        return [
            _wire_keys(dispatcher.dispatch_safe("/v1/query", p)[1])
            for p in payloads
        ]

    with tempfile.TemporaryDirectory() as tmp:
        token_file = Path(tmp) / "tokens"
        token_file.write_text("bench:bench-token\n", encoding="utf-8")
        disarmed = build_pipeline(dispatcher, None)
        with open(os.devnull, "w", encoding="utf-8") as sink:
            armed = build_pipeline(
                dispatcher,
                MiddlewareConfig(
                    auth_token_file=token_file,
                    rate_limit=1e9,
                    max_concurrent=1_000_000,
                    access_log=sink,
                ),
            )

            def run_disarmed() -> list:
                return [
                    _wire_keys(disarmed.dispatch_safe("/v1/query", p)[1])
                    for p in payloads
                ]

            def run_armed() -> list:
                outcomes = []
                for p in payloads:
                    ctx = RequestContext(
                        credential="bench-token", client="bench"
                    )
                    _status, body = armed.handle(ctx, "/v1/query", p)
                    outcomes.append(_wire_keys(body))
                return outcomes

            raw_timing, raw_runs = measure(run_raw, REPEATS)
            disarmed_timing, disarmed_runs = measure(run_disarmed, REPEATS)
            armed_timing, armed_runs = measure(run_armed, REPEATS)

    raw_seconds = raw_timing["min"]
    disarmed_seconds = disarmed_timing["min"]
    armed_seconds = armed_timing["min"]
    n = len(payloads)
    return {
        "n_requests": n,
        "raw_us_per_request": raw_seconds / n * 1e6,
        "disarmed_us_per_request": disarmed_seconds / n * 1e6,
        "armed_us_per_request": armed_seconds / n * 1e6,
        "disarmed_overhead_us": (disarmed_seconds - raw_seconds) / n * 1e6,
        "armed_overhead_us": (armed_seconds - raw_seconds) / n * 1e6,
        "disarmed_ratio": disarmed_seconds / raw_seconds,
        "armed_ratio": armed_seconds / raw_seconds,
        "identical_results": raw_runs[0] == disarmed_runs[0] == armed_runs[0],
        "raw_timing": raw_timing,
        "disarmed_timing": disarmed_timing,
        "armed_timing": armed_timing,
    }


def bench_codec(rounds: int) -> dict:
    """decode(encode(request)) round-trips per second (no engine)."""
    request = QueryRequest(
        dataset="dblp",
        keywords=("Faloutsos",),
        options=QueryOptions(l=SIZE_L).normalized(),
        page_size=3,
    )
    start = time.perf_counter()
    for _ in range(rounds):
        decoded = decode_query_request(encode_request(request))
    seconds = time.perf_counter() - start
    return {
        "rounds": rounds,
        "roundtrips_per_second": rounds / seconds,
        "us_per_roundtrip": seconds / rounds * 1e6,
        "identity": decoded == request,
    }


def _post(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


def bench_http_smoke(quick: bool) -> dict:
    """Boot the real ``repro serve`` CLI and page a query through it."""
    scale = "0.2" if quick else "1.0"
    with tempfile.TemporaryDirectory(prefix="bench-service-") as workdir:
        ready = Path(workdir) / "ready.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "--scale", scale,
                "serve", "--port", "0", "--ready-file", str(ready),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120
            while not ready.is_file():
                if process.poll() is not None:
                    raise RuntimeError(
                        "repro serve exited early: "
                        + process.stderr.read().decode("utf-8", "replace")
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up in time")
                time.sleep(0.05)
            url = ready.read_text(encoding="utf-8").strip()

            paged: list = []
            cursor = None
            latencies: list[float] = []
            requests = 0
            while True:
                body: dict = {
                    "dataset": "dblp",
                    "keywords": ["Faloutsos"],
                    "options": {"l": SIZE_L},
                    "page_size": 1,
                }
                if cursor is not None:
                    body["cursor"] = cursor
                start = time.perf_counter()
                payload = _post(url + "/v1/query", body)
                latencies.append(time.perf_counter() - start)
                requests += 1
                paged.extend(_wire_keys(payload))
                cursor = payload["next_cursor"]
                if cursor is None:
                    break
            whole = _post(
                url + "/v1/query",
                {"dataset": "dblp", "keywords": ["Faloutsos"],
                 "options": {"l": SIZE_L}},
            )
        finally:
            process.terminate()
            process.wait(timeout=30)
    return {
        "requests": requests,
        "paged_equals_unpaged": paged == _wire_keys(whole),
        "mean_latency_ms": sum(latencies) / len(latencies) * 1e3,
        "first_request_ms": latencies[0] * 1e3,
    }


def run_mode(quick: bool) -> dict:
    workload = build_workload(quick)
    session = workload["session"]

    dispatch = bench_dispatch(session, workload["stream"])
    middleware = bench_middleware(session, workload["stream"])
    codec = bench_codec(2_000 if quick else 20_000)
    smoke = bench_http_smoke(quick)

    print(
        f"  dispatch: direct {dispatch['direct_us_per_request']:.0f}us vs "
        f"service {dispatch['service_us_per_request']:.0f}us per request "
        f"(overhead {dispatch['overhead_us_per_request']:.0f}us, "
        f"ratio {dispatch['overhead_ratio']:.2f}x); identical results: "
        f"{'OK' if dispatch['identical_results'] else 'MISMATCH'}"
    )
    print(
        f"  middleware: raw {middleware['raw_us_per_request']:.0f}us, "
        f"disarmed +{middleware['disarmed_overhead_us']:.0f}us "
        f"({middleware['disarmed_ratio']:.2f}x), "
        f"armed +{middleware['armed_overhead_us']:.0f}us "
        f"({middleware['armed_ratio']:.2f}x); identical results: "
        f"{'OK' if middleware['identical_results'] else 'MISMATCH'}"
    )
    print(
        f"  codec: {codec['roundtrips_per_second']:.0f} request "
        f"round-trips/s ({codec['us_per_roundtrip']:.1f}us each)"
    )
    print(
        f"  http smoke: {smoke['requests']} paged requests over repro serve, "
        f"mean {smoke['mean_latency_ms']:.1f}ms; paged == unpaged: "
        f"{'OK' if smoke['paged_equals_unpaged'] else 'MISMATCH'}"
    )
    return {
        "fixture": workload["fixture"],
        "workload": workload["workload"],
        "dispatch": dispatch,
        "middleware": middleware,
        "codec": codec,
        "http_smoke": smoke,
        "verified": {
            "identical_results": dispatch["identical_results"],
            "middleware_identical_results": middleware["identical_results"],
            "codec_identity": codec["identity"],
            "paged_equals_unpaged": smoke["paged_equals_unpaged"],
            "paged_across_requests": smoke["requests"] >= 2,
        },
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(__doc__, BASELINE, run_mode, GATES))
