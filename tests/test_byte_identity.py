"""Cross-topology byte-identity: every pinned body, middleware installed.

Sharding (PR 6) and now the middleware pipeline (PR 8) are implementation
details of the service: with the stack installed but disarmed, every
pinned error body — 400, 404, 405, 409, 413, 503, 504 — and every new
armed body — 401, 429 — must be **byte-identical** between the
single-process server and the sharded cluster.  This suite compares raw
HTTP response bytes between the two topologies, both serving the same
scale-0.5 DBLP recipe through a full (access-logged) pipeline.

It also pins the cluster behaviours that cannot be seen from one
process: the request id riding router→worker hops into the workers' hop
logs, and ``/v1/metrics`` reading the router's merged ``/v1/stats`` (one
``/v1/stats`` per worker per scrape, and one ``dataset_version`` while
replicas diverge).
"""

from __future__ import annotations

import http.client
import io
import json
import os
import shutil
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import Cluster, DatasetSpec
from repro.reliability import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultRule,
    install,
    uninstall,
)
from repro.service import Deployment, MiddlewareConfig, create_server
from repro.service.dispatch import ServiceDispatcher
from repro.service.http import MAX_BODY_BYTES
from repro.service.middleware import REQUEST_ID_HEADER
from repro.service.protocol import MAX_WIRE_L, Cursor

SEED, SCALE = 7, 0.5
KEYWORDS = ["Faloutsos"]
OPTIONS = {"l": 8}

#: Entry fields stable across processes (stats carries wall-clock
#: timings and cache-hit flags, which legitimately differ).
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


def stable(entry: dict) -> dict:
    return {key: entry[key] for key in _STABLE}


def comparable(raw: bytes) -> bytes:
    """A raw success body re-serialized with its per-process fields
    blanked: ``cache`` (each process's own counters) and every entry's
    ``stats``.  Everything else keeps its key order, float text and
    nulls."""
    body = json.loads(raw)
    body["cache"] = {}
    for entry in body["results"]:
        entry["stats"] = {}
    return json.dumps(body).encode("utf-8")


@pytest.fixture(autouse=True)
def disarm_faults():
    """No test may leak an armed in-process plan into the next."""
    yield
    uninstall()


# --------------------------------------------------------------------- #
# One recipe, two topologies (module-scoped: workers are subprocesses)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    """A tiny but valid snapshot of the shared recipe (for the 409 test:
    both topologies attach it at startup, then the test deletes it and
    reloads)."""
    from repro.persist import precompute_snapshot, select_subjects

    scratch = Deployment().add("dblp", named="dblp", seed=SEED, scale=SCALE)
    engine = scratch.session("dblp").engine
    subjects = list(select_subjects(engine, table="author"))[:2]
    path = tmp_path_factory.mktemp("snap") / "dblp-snapshot"
    precompute_snapshot(engine, subjects, path)
    return path


@pytest.fixture(scope="module")
def single(snapshot_path):
    deployment = Deployment().add(
        "dblp",
        named="dblp",
        seed=SEED,
        scale=SCALE,
        cache_size=64,
        snapshot=snapshot_path,
    )
    return ServiceDispatcher(deployment)


@pytest.fixture(scope="module")
def cluster(snapshot_path, tmp_path_factory):
    """A 2-shard cluster over the same recipe.

    Workers spawn with a ``db.io`` error rule in ``REPRO_FAULT_PLAN`` —
    inert for the default in-memory backend, armed the moment a test asks
    for ``backend="database"`` (the cross-topology 503).  Workers also
    append hop lines to a shared access log, which is how the
    id-propagation test observes the far side of the wire.
    """
    hop_log = tmp_path_factory.mktemp("hops") / "hops.jsonl"
    spec = DatasetSpec(
        name="dblp",
        database="dblp",
        seed=SEED,
        scale=SCALE,
        snapshot=str(snapshot_path),
    )
    plan = FaultPlan([FaultRule(site="db.io")])
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        running = Cluster(
            [spec],
            shards=2,
            cache_size=32,
            startup_timeout=240,
            access_log=str(hop_log),
        ).start()
    finally:
        os.environ.pop(FAULT_PLAN_ENV, None)
    try:
        yield running, hop_log
    finally:
        running.stop()


def wait_shard_down(running: Cluster, timeout: float = 30.0) -> None:
    """Block until the supervisor *notices* a kill — acting on a freshly
    killed shard before this races its stale ready state."""
    deadline = time.monotonic() + timeout
    while running.supervisor.ready_count() == running.shards:
        assert time.monotonic() < deadline, "supervisor never noticed the kill"
        time.sleep(0.02)


def wait_all_ready(running: Cluster, timeout: float = 240.0) -> None:
    """Block until every shard is respawned AND serving again (breaker
    closed) — the next test must see a fully healthy cluster."""
    deadline = time.monotonic() + timeout
    while running.supervisor.ready_count() < running.shards:
        assert time.monotonic() < deadline, "cluster did not recover in time"
        time.sleep(0.05)
    probe = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
    while True:
        # a full scatter doubles as the breaker's probe: a half-open
        # breaker only closes again on a successful request
        status, _ = running.dispatch_safe("/v1/query", probe)
        health = running.router.healthz()
        if status == 200 and all(info["state"] == "ok" for info in health["shards"]):
            return
        assert time.monotonic() < deadline, f"router never healed: {health!r}"
        time.sleep(0.1)


def _spawn(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _teardown(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def single_http(single):
    config = MiddlewareConfig(access_log=io.StringIO())
    server, thread = _spawn(create_server(single.deployment, middleware=config))
    yield server
    _teardown(server, thread)


@pytest.fixture(scope="module")
def cluster_http(cluster):
    running, _ = cluster
    config = MiddlewareConfig(access_log=io.StringIO())
    server, thread = _spawn(running.create_http_server(middleware=config))
    yield server
    _teardown(server, thread)


# --------------------------------------------------------------------- #
# Request plumbing
# --------------------------------------------------------------------- #
def call(server, path, body=None, headers=None, method=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def both(single_http, cluster_http, path, body=None, headers=None, method=None):
    return (
        call(single_http, path, body, headers, method),
        call(cluster_http, path, body, headers, method),
    )


def assert_identical(single_reply, cluster_reply, status):
    """The core claim: same status, byte-identical body."""
    assert single_reply[0] == status, single_reply[2]
    assert cluster_reply[0] == status, cluster_reply[2]
    assert single_reply[2] == cluster_reply[2]


# --------------------------------------------------------------------- #
# Pinned bodies, disarmed stack
# --------------------------------------------------------------------- #
class TestPinnedBodies:
    def test_400_invalid_payload(self, single_http, cluster_http) -> None:
        replies = both(single_http, cluster_http, "/v1/query", {"dataset": "dblp"})
        assert_identical(*replies, 400)
        assert json.loads(replies[0][2])["error"]["type"] == "RequestValidationError"
        # options fields the protocol does not define
        for field, extra in (
            ("flat", {"source": "complete", "flat": False}),
            ("parallel", {"parallel": {"workers": 4, "ordered": False}}),
            ("snapshot", {"snapshot": False}),
        ):
            payload = {
                "dataset": "dblp",
                "keywords": KEYWORDS,
                "options": {**OPTIONS, **extra},
            }
            replies = both(single_http, cluster_http, "/v1/query", payload)
            assert_identical(*replies, 400)
            error = json.loads(replies[0][2])["error"]
            assert error["type"] == "RequestValidationError"
            assert "unknown field" in error["message"] and field in error["message"]
        # an l above the wire cap, on the endpoint that runs DP unbounded
        payload = {
            "dataset": "dblp",
            "table": "author",
            "row_id": 0,
            "options": {"l": MAX_WIRE_L + 1, "algorithm": "dp", "source": "complete"},
        }
        replies = both(single_http, cluster_http, "/v1/size-l", payload)
        assert_identical(*replies, 400)
        error = json.loads(replies[0][2])["error"]
        assert error["type"] == "RequestValidationError"
        assert "wire limit" in error["message"]

    def test_400_stale_cursor(self, single_http, cluster_http) -> None:
        payload = {
            "dataset": "dblp",
            "keywords": KEYWORDS,
            "options": OPTIONS,
            "cursor": Cursor(rank=0, table="paper", row_id=999_999).encode(),
        }
        replies = both(single_http, cluster_http, "/v1/query", payload)
        assert_identical(*replies, 400)
        assert "stale cursor" in json.loads(replies[0][2])["error"]["message"]

    def test_404_unknown_dataset(self, single_http, cluster_http) -> None:
        payload = {"dataset": "ghost", "keywords": KEYWORDS, "options": OPTIONS}
        replies = both(single_http, cluster_http, "/v1/query", payload)
        assert_identical(*replies, 404)
        assert json.loads(replies[0][2])["error"]["type"] == "UnknownDatasetError"

    def test_404_unknown_endpoint(self, single_http, cluster_http) -> None:
        replies = both(single_http, cluster_http, "/v1/nonsense")
        assert_identical(*replies, 404)

    def test_405_wrong_method(self, single_http, cluster_http) -> None:
        replies = both(single_http, cluster_http, "/v1/query", method="GET")
        assert_identical(*replies, 405)
        assert replies[0][1]["Allow"] == replies[1][1]["Allow"] == "POST"

    def test_413_oversized_body(self, single_http, cluster_http) -> None:
        def oversized(server):
            conn = http.client.HTTPConnection(
                server.server_address[0], server.port, timeout=30
            )
            try:
                conn.putrequest("POST", "/v1/query")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
                conn.endheaders()
                response = conn.getresponse()
                return response.status, dict(response.headers), response.read()
            finally:
                conn.close()

        replies = (oversized(single_http), oversized(cluster_http))
        assert_identical(*replies, 413)
        assert json.loads(replies[0][2])["error"]["type"] == "PayloadTooLargeError"

    def test_503_backend_io(self, single_http, cluster_http) -> None:
        """Same injected IO fault (in-process for single, via the worker
        env plan for the cluster) → the same pinned retryable body."""
        install(FaultPlan([FaultRule(site="db.io")]))
        payload = {
            "dataset": "dblp",
            "keywords": KEYWORDS,
            "options": {"l": 8, "backend": "database"},
        }
        invalidate = {"dataset": "dblp"}
        replies = both(
            single_http, cluster_http, "/v1/admin/invalidate", invalidate
        )
        assert replies[0][0] == replies[1][0] == 200
        replies = both(single_http, cluster_http, "/v1/query", payload)
        assert_identical(*replies, 503)
        body = json.loads(replies[0][2])
        assert body["error"]["type"] == "BackendIOError"
        assert "db.io" in body["error"]["message"]

    def test_504_deadline(self, single_http, cluster_http, cluster) -> None:
        """A blown 100ms budget — via a dead shard on the cluster, via
        slow injected IO in the single process — pins the same body."""
        running, _ = cluster
        running.supervisor.kill(1)
        wait_shard_down(running)
        try:
            payload = {
                "dataset": "dblp",
                "keywords": KEYWORDS,
                "options": OPTIONS,
                "deadline_ms": 100,
            }
            cluster_reply = call(cluster_http, "/v1/query", payload)

            install(
                FaultPlan([FaultRule(site="db.io", kind="delay", delay_seconds=0.02)])
            )
            assert call(single_http, "/v1/admin/invalidate", {"dataset": "dblp"})[0] == 200
            single_reply = call(
                single_http,
                "/v1/query",
                {
                    "dataset": "dblp",
                    "keywords": KEYWORDS,
                    "options": {"l": 8, "backend": "database"},
                    "deadline_ms": 100,
                },
            )
            assert_identical(single_reply, cluster_reply, 504)
            assert (
                json.loads(single_reply[2])["error"]["type"] == "DeadlineExceededError"
            )
        finally:
            uninstall()
            wait_all_ready(running)

    def test_409_reload_after_snapshot_loss(
        self, single_http, cluster_http, snapshot_path
    ) -> None:
        """Deleting the snapshot directory then reloading answers the
        pinned 409 on both topologies — and both keep serving."""
        shutil.rmtree(snapshot_path)
        replies = both(
            single_http, cluster_http, "/v1/admin/reload", {"dataset": "dblp"}
        )
        assert_identical(*replies, 409)
        query = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        replies = both(single_http, cluster_http, "/v1/query", query)
        assert replies[0][0] == replies[1][0] == 200  # still serving


# --------------------------------------------------------------------- #
# Pinned bodies, armed stack (401 / 429)
# --------------------------------------------------------------------- #
class TestArmedBodies:
    @pytest.fixture()
    def armed_pair(self, single, cluster, tmp_path):
        tokens = tmp_path / "tokens"
        tokens.write_text("alice:sesame\n", encoding="utf-8")
        config = MiddlewareConfig(auth_token_file=tokens, rate_limit=10_000.0)
        running, _ = cluster
        servers = [
            _spawn(create_server(single.deployment, middleware=config)),
            _spawn(running.create_http_server(middleware=config)),
        ]
        yield servers[0][0], servers[1][0]
        for server, thread in servers:
            _teardown(server, thread)

    @pytest.fixture()
    def throttled_pair(self, single, cluster):
        config = MiddlewareConfig(rate_limit=0.001, rate_burst=1)
        running, _ = cluster
        servers = [
            _spawn(create_server(single.deployment, middleware=config)),
            _spawn(running.create_http_server(middleware=config)),
        ]
        yield servers[0][0], servers[1][0]
        for server, thread in servers:
            _teardown(server, thread)

    def test_401_missing_and_wrong_credentials(self, armed_pair) -> None:
        for headers in ({}, {"Authorization": "Bearer wrong"}):
            replies = both(*armed_pair, "/v1/datasets", headers=headers)
            assert_identical(*replies, 401)
            assert (
                replies[0][1]["WWW-Authenticate"]
                == replies[1][1]["WWW-Authenticate"]
                == "Bearer"
            )

    def test_good_credential_serves_both(self, armed_pair) -> None:
        headers = {"Authorization": "Bearer sesame"}
        payload = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        replies = both(*armed_pair, "/v1/query", payload, headers=headers)
        assert replies[0][0] == replies[1][0] == 200
        assert [stable(e) for e in json.loads(replies[0][2])["results"]] == [
            stable(e) for e in json.loads(replies[1][2])["results"]
        ]

    def test_429_throttled(self, throttled_pair) -> None:
        for server in throttled_pair:  # each server grants its 1-token burst
            assert call(server, "/v1/datasets")[0] == 200
        replies = both(*throttled_pair, "/v1/datasets")
        assert_identical(*replies, 429)
        assert replies[0][1]["Retry-After"] == replies[1][1]["Retry-After"]


# --------------------------------------------------------------------- #
# Success path: same answers through the installed stack
# --------------------------------------------------------------------- #
class TestSuccessThroughMiddleware:
    def test_query_results_match(self, single_http, cluster_http) -> None:
        payload = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        replies = both(single_http, cluster_http, "/v1/query", payload)
        assert replies[0][0] == replies[1][0] == 200
        single_body = json.loads(replies[0][2])
        cluster_body = json.loads(replies[1][2])
        assert [stable(e) for e in single_body["results"]] == [
            stable(e) for e in cluster_body["results"]
        ]
        assert single_body["total_matches"] == cluster_body["total_matches"]
        assert single_body["next_cursor"] == cluster_body["next_cursor"]

    def test_success_bytes_match_but_for_cache_and_stats(
        self, single_http, cluster_http
    ) -> None:
        """Whole query, pages, an empty last page and a batch: the two
        topologies' raw bodies differ only in ``cache`` and entry
        ``stats``."""
        query = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        whole = json.loads(call(single_http, "/v1/query", query)[2])
        results = whole["results"]
        assert len(results) == whole["total_matches"] >= 2
        first = json.loads(call(single_http, "/v1/query", {**query, "page_size": 1})[2])
        last = Cursor(
            rank=results[-1]["rank"],
            table=results[-1]["table"],
            row_id=results[-1]["row_id"],
        )
        subjects = [[entry["table"], entry["row_id"]] for entry in results]
        cases = [
            ("/v1/query", query),
            ("/v1/query", {**query, "page_size": 1}),
            ("/v1/query", {**query, "page_size": 1, "cursor": first["next_cursor"]}),
            ("/v1/query", {**query, "cursor": last.encode()}),
            ("/v1/batch", {"dataset": "dblp", "subjects": subjects, "options": OPTIONS}),
        ]
        bodies = []
        for path, payload in cases:
            single_reply, cluster_reply = both(single_http, cluster_http, path, payload)
            assert single_reply[0] == cluster_reply[0] == 200, (path, payload)
            assert comparable(single_reply[2]) == comparable(cluster_reply[2]), payload
            bodies.append(json.loads(cluster_reply[2]))
        assert bodies[2]["results"][0]["rank"] == 1
        assert bodies[3]["results"] == [] and bodies[3]["next_cursor"] is None

    def test_pipeline_preserves_dispatcher_bytes(self, single, single_http) -> None:
        """The disarmed stack serves the byte-exact serialization of the
        bare dispatcher's body (pinned errors are deterministic dicts)."""
        payload = {"dataset": "ghost", "keywords": KEYWORDS, "options": OPTIONS}
        _status, bare = single.dispatch_safe("/v1/query", payload)
        reply = call(single_http, "/v1/query", payload)
        assert reply[2] == json.dumps(bare).encode("utf-8")


# --------------------------------------------------------------------- #
# Cluster-only behaviours: hop ids and merged metrics
# --------------------------------------------------------------------- #
class TestClusterObservability:
    def test_request_id_rides_into_worker_hop_logs(
        self, cluster_http, cluster
    ) -> None:
        _, hop_log = cluster
        payload = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        status, headers, _ = call(
            cluster_http,
            "/v1/query",
            payload,
            headers={REQUEST_ID_HEADER: "hop-trace-1"},
        )
        assert status == 200
        assert headers[REQUEST_ID_HEADER] == "hop-trace-1"
        deadline = time.monotonic() + 10.0
        records = []
        while time.monotonic() < deadline:
            if hop_log.exists():
                records = [
                    json.loads(line)
                    for line in hop_log.read_text(encoding="utf-8").splitlines()
                    if line.strip()
                ]
                if any(r["id"] == "hop-trace-1" for r in records):
                    break
            time.sleep(0.05)
        hops = [r for r in records if r["id"] == "hop-trace-1"]
        assert hops, f"edge request id never reached a worker log: {records!r}"
        for record in hops:
            assert record["shard"] in (0, 1)
            assert record["dataset"] == "dblp"
            assert record["status"] == 200

    def test_metrics_merge_cache_stats_across_shards(
        self, cluster_http
    ) -> None:
        payload = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        assert call(cluster_http, "/v1/query", payload)[0] == 200
        status, headers, raw = call(cluster_http, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode("utf-8")
        assert 'repro_requests_total{endpoint="/v1/query",status="200"}' in text
        assert 'repro_cache_hits{dataset="dblp"}' in text
        assert 'repro_cache_result_computations{dataset="dblp"}' in text

    def test_one_scrape_asks_each_worker_for_stats_once(
        self, cluster_http, cluster
    ) -> None:
        running, hop_log = cluster

        def stats_hops() -> int:
            return sum(
                json.loads(line)["endpoint"] == "/v1/stats"
                for line in hop_log.read_text(encoding="utf-8").splitlines()
                if line.strip()
            )

        before = stats_hops()
        assert call(cluster_http, "/v1/metrics")[0] == 200
        # a worker logs its hop line before it replies, so no wait is needed
        assert stats_hops() - before == running.shards == 2

    def test_stats_and_metrics_agree_while_replicas_diverge(
        self, cluster_http, cluster
    ) -> None:
        """One shard one commit ahead: both endpoints read the max."""
        running, _ = cluster
        mutation = {
            "dataset": "dblp",
            "operations": [
                {"op": "insert", "table": "author",
                 "values": {"author_id": 20_000, "name": "Replica Probe"}}
            ],
        }
        status, ahead = running.supervisor.request(1, "/v1/mutate", mutation)
        assert status == 200, ahead
        try:
            status, _, raw = call(cluster_http, "/v1/stats")
            assert status == 200
            stats_version = json.loads(raw)["dblp"]["dataset_version"]
            text = call(cluster_http, "/v1/metrics")[2].decode("utf-8")
            [metrics_version] = [
                int(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith('repro_dataset_version{dataset="dblp"}')
            ]
            assert stats_version == metrics_version == ahead["dataset_version"]
        finally:
            # re-converge the replicas for whatever runs after this test
            status, body = running.supervisor.request(0, "/v1/mutate", mutation)
            assert status == 200, body
