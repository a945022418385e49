"""The chaos suite: seeded fault schedules against the live cluster.

The cardinal invariant under test: **no fault schedule may change an
answer**.  Every 200 response produced while faults are armed must be
byte-identical (modulo timing fields) to the fault-free single-process
reference; failures must be one of the pinned retryable shapes (503
``ShardUnavailableError``/``BackendIOError``, 504
``DeadlineExceededError``) or an explicitly marked degraded response.

Transport faults are installed **in this process**, so they hit the
router's client side of every frame — the workers themselves stay
healthy, which is exactly the "flaky network, correct backends" half of
the chaos vocabulary.  Worker-process faults ride :data:`FAULT_PLAN_ENV`.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import Cluster, ClusterRouter, DatasetSpec
from repro.errors import (
    DeadlineExceededError,
    ShardUnavailableError,
    WorkerStartupError,
)
from repro.reliability import FAULT_PLAN_ENV, FaultPlan, FaultRule, install, uninstall
from repro.service.deployment import Deployment
from repro.service.dispatch import ServiceDispatcher
from repro.service.http import DEADLINE_HEADER, ServiceHTTPServer
from repro.service.middleware import build_pipeline
from repro.service.protocol import encode_error

SEED, SCALE = 7, 0.5
KEYWORDS = ["Faloutsos"]
OPTIONS = {"l": 8}

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


@pytest.fixture(autouse=True)
def disarm_faults():
    """No test may leak an armed plan into the next (or other files)."""
    yield
    uninstall()


@pytest.fixture(scope="module")
def reference():
    deployment = Deployment().add(
        "dblp", named="dblp", seed=SEED, scale=SCALE, cache_size=64
    )
    return ServiceDispatcher(deployment)


@pytest.fixture(scope="module")
def cluster():
    spec = DatasetSpec(name="dblp", database="dblp", seed=SEED, scale=SCALE)
    with Cluster([spec], shards=3, cache_size=16, startup_timeout=180) as running:
        yield running


def wait_all_ready(cluster: Cluster, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while cluster.supervisor.ready_count() < cluster.shards:
        assert time.monotonic() < deadline, "cluster did not recover in time"
        time.sleep(0.05)


def wait_shard_down(cluster: Cluster, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while cluster.supervisor.ready_count() == cluster.shards:
        assert time.monotonic() < deadline, "supervisor never noticed the kill"
        time.sleep(0.02)


# --------------------------------------------------------------------- #
# Seeded transport-fault sweep: wrong answers never
# --------------------------------------------------------------------- #
class TestSeededChaosSweep:
    @pytest.mark.parametrize("seed,rate", [(11, 0.05), (23, 0.15)])
    def test_faulty_transport_never_changes_an_answer(
        self, cluster, reference, seed, rate
    ) -> None:
        query = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        _, truth = reference.dispatch_safe("/v1/query", query)
        truth_stable = [stable(e) for e in truth["results"]]
        subjects = [[e["table"], e["row_id"]] for e in truth["results"]]
        batch = {"dataset": "dblp", "subjects": subjects, "options": OPTIONS}
        _, batch_truth = reference.dispatch_safe("/v1/batch", batch)
        batch_stable = [stable(e) for e in batch_truth["results"]]

        install(
            FaultPlan(
                [
                    FaultRule(site="transport.send", probability=rate),
                    FaultRule(site="transport.recv", probability=rate),
                ],
                seed=seed,
            )
        )
        outcomes = {"ok": 0, "retryable": 0}
        for i in range(12):
            if i % 3 == 2:
                status, body = cluster.dispatch_safe("/v1/batch", batch)
                expected = batch_stable
            else:
                status, body = cluster.dispatch_safe("/v1/query", query)
                expected = truth_stable
            if status == 200:
                # the cardinal invariant: faults may slow or fail a
                # request, but a served answer is always the right one
                assert [stable(e) for e in body["results"]] == expected
                assert "degraded" not in body
                outcomes["ok"] += 1
            else:
                # the only acceptable failures are the pinned retryable ones
                assert status in (503, 504), body
                assert body["error"]["type"] in (
                    "ShardUnavailableError",
                    "DeadlineExceededError",
                ), body
                outcomes["retryable"] += 1
        # patient retries absorb a 5-15% frame-fault rate almost entirely
        assert outcomes["ok"] >= 9, outcomes


# --------------------------------------------------------------------- #
# Deadlines against a dead shard: the pinned 504, both topologies
# --------------------------------------------------------------------- #
class TestDeadlineCrossTopology:
    def test_dead_shard_pins_504_fast_and_identically(
        self, cluster, reference
    ) -> None:
        victim = 1
        cluster.supervisor.kill(victim)
        try:
            payload = {
                "dataset": "dblp",
                "keywords": KEYWORDS,
                "options": OPTIONS,
                "deadline_ms": 100,
            }
            started = time.perf_counter()
            status, cluster_body = cluster.dispatch_safe("/v1/query", payload)
            elapsed = time.perf_counter() - started
            assert status == 504, cluster_body
            assert cluster_body == encode_error(DeadlineExceededError(100), 504)
            # the budget, not the router's 30s flat timeout, set the clock
            assert elapsed < 0.75, f"504 took {elapsed:.3f}s for a 100ms budget"

            # single process, same budget blown by slow IO instead of a
            # dead shard: the body must be byte-identical
            install(
                FaultPlan(
                    [FaultRule(site="db.io", kind="delay", delay_seconds=0.02)]
                )
            )
            assert (
                reference.dispatch_safe(
                    "/v1/admin/invalidate", {"dataset": "dblp"}
                )[0]
                == 200
            )
            single_payload = {
                "dataset": "dblp",
                "keywords": KEYWORDS,
                "options": {"l": 8, "backend": "database"},
                "deadline_ms": 100,
            }
            status, single_body = reference.dispatch_safe(
                "/v1/query", single_payload
            )
            assert status == 504, single_body
            assert json.dumps(single_body, sort_keys=True) == json.dumps(
                cluster_body, sort_keys=True
            )
        finally:
            uninstall()
            wait_all_ready(cluster)

    def test_generous_budget_is_invisible(self, cluster, reference) -> None:
        payload = {
            "dataset": "dblp",
            "keywords": KEYWORDS,
            "options": OPTIONS,
            "deadline_ms": 60_000,
        }
        status, sharded = cluster.dispatch_safe("/v1/query", payload)
        plain = dict(payload)
        del plain["deadline_ms"]
        ref_status, single = reference.dispatch_safe("/v1/query", plain)
        assert (status, ref_status) == (200, 200)
        assert [stable(e) for e in sharded["results"]] == [
            stable(e) for e in single["results"]
        ]
        assert "degraded" not in sharded


# --------------------------------------------------------------------- #
# Degraded mode: partial answers instead of 503, clearly marked
# --------------------------------------------------------------------- #
class TestDegradedServing:
    def test_allow_partial_serves_the_healthy_shards(
        self, cluster, reference
    ) -> None:
        query = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        _, truth = reference.dispatch_safe("/v1/query", query)
        truth_by_rank = {e["rank"]: stable(e) for e in truth["results"]}

        # a router with short patience: a dead shard must cost ~patience,
        # not the full request timeout
        router = ClusterRouter(
            cluster.supervisor,
            request_timeout=10.0,
            retry_interval=0.02,
            breaker_threshold=3,
            breaker_reset=0.2,
            partial_patience=0.3,
        )
        victim = 2
        cluster.supervisor.kill(victim)
        try:
            wait_shard_down(cluster)
            started = time.perf_counter()
            status, body = router.dispatch_safe(
                "/v1/query", dict(query, allow_partial=True)
            )
            elapsed = time.perf_counter() - started
            assert status == 200, body
            assert body["degraded"] is True
            assert body["missing_shards"] == [victim]
            assert elapsed < 5.0
            # every surviving entry is *correct* and keeps its global rank
            assert body["results"], "two healthy shards must contribute"
            assert len(body["results"]) < len(truth["results"])
            for entry in body["results"]:
                assert stable(entry) == truth_by_rank[entry["rank"]]
            assert body["total_matches"] == truth["total_matches"]

            # stats broadcasts degrade the same way
            status, stats = router.dispatch_safe(
                "/v1/stats", {"dataset": "dblp", "allow_partial": True}
            )
            assert status == 200, stats
            assert stats["degraded"] is True
            assert stats["missing_shards"] == [victim]
            assert "cache" in stats

            # without the flag the same query is the pinned 503/504 or a
            # patient success — never a silently shorter result list
            impatient = ClusterRouter(cluster.supervisor, request_timeout=0.5)
            status, body = impatient.dispatch_safe("/v1/query", query)
            if status == 200:
                assert [stable(e) for e in body["results"]] == [
                    stable(e) for e in truth["results"]
                ]
            else:
                assert status == 503
                assert body["error"]["type"] == "ShardUnavailableError"
            impatient.close()
        finally:
            router.close()
            wait_all_ready(cluster)

        # healthy again: allow_partial responses carry no degraded marker
        status, body = cluster.dispatch_safe(
            "/v1/query", dict(query, allow_partial=True)
        )
        assert status == 200
        assert "degraded" not in body and "missing_shards" not in body
        assert [stable(e) for e in body["results"]] == [
            stable(e) for e in truth["results"]
        ]


# --------------------------------------------------------------------- #
# A hung (stopped, not dead) shard costs partial_patience in degraded mode
# --------------------------------------------------------------------- #
class TestHungShard:
    def test_partial_mode_waits_partial_patience_for_a_hung_shard(self) -> None:
        """A stopped worker accepts connections and never answers; in
        degraded mode it must cost ``partial_patience``, not the budget."""
        spec = DatasetSpec(name="dblp", database="dblp", seed=SEED, scale=0.2)
        # a long health interval: the supervisor's liveness probe must not
        # replace the stopped worker while the test measures it
        with Cluster(
            [spec], shards=2, health_interval=60.0, startup_timeout=180
        ) as running:
            router = ClusterRouter(
                running.supervisor,
                request_timeout=10.0,
                retry_interval=0.02,
                partial_patience=0.3,
            )
            query = {
                "dataset": "dblp",
                "keywords": KEYWORDS,
                "options": OPTIONS,
                "allow_partial": True,
            }
            status, body = router.dispatch_safe("/v1/query", query)
            assert status == 200 and body["results"], body
            first = body["results"][0]
            victim = router.ring.owner("dblp", first["table"], first["row_id"])
            pid = running.supervisor.describe()[victim]["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                for endpoint, payload in (
                    ("/v1/stats", {"allow_partial": True}),
                    ("/v1/query", query),
                ):
                    started = time.monotonic()
                    status, body = router.dispatch_safe(endpoint, payload)
                    assert time.monotonic() - started < 3.0, endpoint
                    assert status == 200, body
                    assert body["degraded"] is True
                    assert body["missing_shards"] == [victim]
                started = time.monotonic()
                text = build_pipeline(router, None).metrics_text()
                assert time.monotonic() - started < 3.0
                # the answering shard's reading, not request metrics alone
                assert 'repro_cache_hits{dataset="dblp"}' in text
            finally:
                os.kill(pid, signal.SIGCONT)
                router.close()


# --------------------------------------------------------------------- #
# healthz: per-shard states
# --------------------------------------------------------------------- #
class TestHealthz:
    def test_healthy_cluster_reports_ok_everywhere(self, cluster) -> None:
        wait_all_ready(cluster)
        body = cluster.router.healthz()
        assert body["ok"] is True
        assert body["role"] == "router"
        assert [info["state"] for info in body["shards"]] == ["ok", "ok", "ok"]

    def test_killed_shard_reports_restarting(self, cluster) -> None:
        victim = 0
        cluster.supervisor.kill(victim)
        try:
            wait_shard_down(cluster)
            body = cluster.router.healthz()
            assert body["ok"] is False
            by_shard = {info["shard"]: info for info in body["shards"]}
            assert by_shard[victim]["state"] == "restarting"
        finally:
            wait_all_ready(cluster)

    def test_open_breaker_reports_breaker_open(self, cluster) -> None:
        wait_all_ready(cluster)
        router = ClusterRouter(cluster.supervisor, breaker_threshold=2)
        try:
            for _ in range(2):
                router._breakers[1].record_failure()
            body = router.healthz()
            by_shard = {info["shard"]: info for info in body["shards"]}
            assert by_shard[1]["state"] == "breaker_open"
            assert by_shard[0]["state"] == "ok"
            assert body["ok"] is True  # supervisor readiness, not breakers
        finally:
            router.close()

    def test_single_process_body_is_unchanged_and_builds_no_session(self) -> None:
        """The pre-PR 7 single-process healthz body is pinned; reaching it
        must never trigger a session build."""
        deployment = Deployment().add("dblp", named="dblp", seed=SEED, scale=0.25)

        def boom(*_args, **_kwargs):
            raise AssertionError("healthz must not build a session")

        deployment.session = boom  # type: ignore[method-assign]
        assert ServiceDispatcher(deployment).healthz() == {
            "ok": True,
            "role": "single-process",
            "datasets": deployment.names(),
        }


# --------------------------------------------------------------------- #
# HTTP front-end decoration: Retry-After and the deadline header
# --------------------------------------------------------------------- #
class _ScriptedDispatcher:
    """A dispatcher stub: fixed reply, records every payload it saw."""

    def __init__(self, status: int, body: dict) -> None:
        self.status = status
        self.body = body
        self.calls: list[tuple[str, object]] = []

    def dispatch_safe(self, endpoint: str, payload: object = None):
        self.calls.append((endpoint, payload))
        return self.status, self.body


@pytest.fixture()
def http_server():
    servers = []

    def factory(dispatcher):
        server = ServiceHTTPServer(("127.0.0.1", 0), dispatcher)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.shutdown()
        server.server_close()


def _post(url: str, payload: dict, headers: dict | None = None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


class TestHTTPReliabilitySurface:
    def test_shard_unavailable_503_carries_retry_after(self, http_server) -> None:
        body = encode_error(ShardUnavailableError(1, "worker is down"), 503)
        server = http_server(_ScriptedDispatcher(503, body))
        status, headers, got = _post(server.url + "/v1/query", {"dataset": "d"})
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert got == body

    def test_504_and_other_503s_do_not(self, http_server) -> None:
        gone = encode_error(DeadlineExceededError(100), 504)
        server = http_server(_ScriptedDispatcher(504, gone))
        status, headers, _ = _post(server.url + "/v1/query", {"dataset": "d"})
        assert status == 504
        assert headers.get("Retry-After") is None

    def test_deadline_header_becomes_the_budget_field(self, http_server) -> None:
        scripted = _ScriptedDispatcher(200, {"ok": True})
        server = http_server(scripted)
        status, _headers, _ = _post(
            server.url + "/v1/query",
            {"dataset": "d"},
            headers={DEADLINE_HEADER: "250"},
        )
        assert status == 200
        assert scripted.calls[-1][1] == {"dataset": "d", "deadline_ms": 250}

    def test_body_field_wins_over_the_header(self, http_server) -> None:
        scripted = _ScriptedDispatcher(200, {"ok": True})
        server = http_server(scripted)
        _post(
            server.url + "/v1/query",
            {"dataset": "d", "deadline_ms": 50},
            headers={DEADLINE_HEADER: "250"},
        )
        assert scripted.calls[-1][1] == {"dataset": "d", "deadline_ms": 50}

    def test_invalid_deadline_header_is_a_400(self, http_server) -> None:
        scripted = _ScriptedDispatcher(200, {"ok": True})
        server = http_server(scripted)
        for bad in ("abc", "0", "-5"):
            status, _headers, got = _post(
                server.url + "/v1/query",
                {"dataset": "d"},
                headers={DEADLINE_HEADER: bad},
            )
            assert status == 400
            assert got["error"]["type"] == "RequestValidationError"
        assert scripted.calls == []  # never reached dispatch

    def test_stats_allow_partial_query_param(self, http_server) -> None:
        scripted = _ScriptedDispatcher(200, {"ok": True})
        server = http_server(scripted)
        with urllib.request.urlopen(
            server.url + "/v1/stats?dataset=d&allow_partial=1", timeout=30
        ) as response:
            assert response.status == 200
        assert scripted.calls[-1] == (
            "/v1/stats",
            {"dataset": "d", "allow_partial": True},
        )


# --------------------------------------------------------------------- #
# Worker-process faults via the environment
# --------------------------------------------------------------------- #
class TestWorkerStartupFaults:
    def test_startup_fault_fails_the_spawn_with_the_stderr_tail(
        self, monkeypatch
    ) -> None:
        plan = FaultPlan([FaultRule(site="worker.startup")], seed=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        spec = DatasetSpec(name="dblp", database="dblp", seed=SEED, scale=0.25)
        broken = Cluster([spec], shards=1, startup_timeout=60)
        with pytest.raises(WorkerStartupError, match="injected fault"):
            broken.start()
        broken.stop()
