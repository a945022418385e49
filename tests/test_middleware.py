"""Unit and HTTP-level tests for the middleware pipeline (PR 8).

Covers the spine (request ids, thread-local context) and every rider:
constant-time token auth (pinned 401), token-bucket rate limiting with a
fake clock (pinned 429 + Retry-After), structured JSON access logs,
Prometheus metrics, the 413 oversized-body regression, request-id echo on
every response, and supervisor stderr-log rotation.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.cache import CacheStats, SummaryCache
from repro.errors import (
    AuthenticationError,
    RateLimitedError,
    RequestValidationError,
    ServiceError,
)
from repro.cluster.supervisor import _prune_stderr_logs
from repro.service import Deployment, create_server
from repro.service.dispatch import ServiceDispatcher
from repro.service.http import MAX_BODY_BYTES
from repro.service.middleware import (
    AUTH_FAILURES_METRIC,
    MAX_REQUEST_ID_LENGTH,
    MAX_TRACKED_CLIENTS,
    REQUEST_ID_HEADER,
    THROTTLED_METRIC,
    AccessLog,
    AccessLogMiddleware,
    AuthMiddleware,
    MetricsRegistry,
    MiddlewareConfig,
    MiddlewarePipeline,
    RateLimiter,
    RateLimitMiddleware,
    RequestContext,
    TokenAuthenticator,
    build_pipeline,
    client_key,
    context_scope,
    current_context,
    new_request_id,
    validate_request_id,
)
from repro.service.protocol import encode_error

L = 6


# --------------------------------------------------------------------- #
# Context and request ids
# --------------------------------------------------------------------- #
class TestRequestContext:
    def test_generated_ids_are_valid_and_unique(self) -> None:
        a, b = new_request_id(), new_request_id()
        assert a != b
        assert validate_request_id(a) == a

    @pytest.mark.parametrize("good", ["a", "trace-1", "A.b_c-9", "x" * 128])
    def test_validate_accepts(self, good: str) -> None:
        assert validate_request_id(good) == good

    @pytest.mark.parametrize(
        "bad", ["", "x" * (MAX_REQUEST_ID_LENGTH + 1), "sp ace", "new\nline", 'q"uote', None, 7]
    )
    def test_validate_rejects(self, bad: object) -> None:
        with pytest.raises(RequestValidationError):
            validate_request_id(bad)

    def test_wire_identity_round_trips(self) -> None:
        ctx = RequestContext(request_id="abc-123", principal="alice")
        hop = RequestContext.from_wire(ctx.wire_identity(), endpoint="/v1/batch")
        assert hop.request_id == "abc-123"
        assert hop.principal == "alice"
        assert hop.endpoint == "/v1/batch"

    def test_from_wire_tolerates_garbage(self) -> None:
        for raw in (None, "nope", 42, {"request_id": "bad id!"}, {"principal": 3}):
            ctx = RequestContext.from_wire(raw)
            assert validate_request_id(ctx.request_id)
            assert ctx.principal is None

    def test_context_scope_installs_and_restores(self) -> None:
        assert current_context() is None
        outer = RequestContext()
        with context_scope(outer):
            assert current_context() is outer
            with context_scope(RequestContext()):
                assert current_context() is not outer
            assert current_context() is outer
        assert current_context() is None


# --------------------------------------------------------------------- #
# Auth
# --------------------------------------------------------------------- #
class TestTokenAuth:
    def test_file_parsing(self, tmp_path) -> None:
        path = tmp_path / "tokens"
        path.write_text(
            "# a comment\n\nalice:secret-a\nbare-token\nbob:secret-b\n",
            encoding="utf-8",
        )
        auth = TokenAuthenticator.from_file(path)
        assert len(auth) == 3
        assert auth.authenticate("secret-a") == "alice"
        assert auth.authenticate("bare-token") == "client"
        assert auth.authenticate("secret-b") == "bob"
        assert auth.authenticate("wrong") is None
        assert auth.authenticate(None) is None
        assert auth.authenticate("") is None

    def test_malformed_line_rejected(self, tmp_path) -> None:
        path = tmp_path / "tokens"
        path.write_text("alice:\n", encoding="utf-8")
        with pytest.raises(ServiceError, match="line 1"):
            TokenAuthenticator.from_file(path)

    def test_missing_file_rejected(self, tmp_path) -> None:
        with pytest.raises(ServiceError, match="cannot read"):
            TokenAuthenticator.from_file(tmp_path / "absent")

    def test_empty_table_rejected(self) -> None:
        with pytest.raises(ServiceError):
            TokenAuthenticator({})

    def test_middleware_rejects_with_pinned_401(self) -> None:
        metrics = MetricsRegistry()
        middleware = AuthMiddleware(
            TokenAuthenticator({"tok": "alice"}), metrics=metrics
        )
        ctx = RequestContext(credential="nope")
        status, body = middleware.handle(
            ctx, "/v1/query", None, lambda: (200, {"never": True})
        )
        assert status == 401
        assert body == encode_error(AuthenticationError(), 401)
        assert ctx.response_headers["WWW-Authenticate"] == "Bearer"
        assert ctx.principal is None
        assert metrics.snapshot()["events"][AUTH_FAILURES_METRIC] == 1

    def test_middleware_sets_principal_on_success(self) -> None:
        middleware = AuthMiddleware(TokenAuthenticator({"tok": "alice"}))
        ctx = RequestContext(credential="tok")
        status, _body = middleware.handle(
            ctx, "/v1/query", None, lambda: (200, {"ok": True})
        )
        assert status == 200
        assert ctx.principal == "alice"


# --------------------------------------------------------------------- #
# Rate limiting (fake clock — no sleeps)
# --------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestRateLimiter:
    def test_burst_then_throttle_then_refill(self) -> None:
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=2, clock=clock)
        assert limiter.admit("a") is None
        assert limiter.admit("a") is None
        retry = limiter.admit("a")
        assert retry is not None and retry == pytest.approx(1.0)
        clock.now += 1.0  # one token lands
        assert limiter.admit("a") is None
        assert limiter.admit("a") is not None

    def test_clients_are_independent(self) -> None:
        limiter = RateLimiter(rate=1.0, burst=1, clock=FakeClock())
        assert limiter.admit("a") is None
        assert limiter.admit("a") is not None
        assert limiter.admit("b") is None

    def test_concurrency_quota_frees_on_release(self) -> None:
        limiter = RateLimiter(max_concurrent=2, clock=FakeClock())
        assert limiter.admit("a") is None
        assert limiter.admit("a") is None
        assert limiter.admit("a") == pytest.approx(1.0)
        limiter.release("a")
        assert limiter.admit("a") is None

    def test_tracked_clients_are_bounded(self) -> None:
        limiter = RateLimiter(rate=1.0, burst=1, clock=FakeClock())
        for i in range(MAX_TRACKED_CLIENTS + 50):
            limiter.admit(f"client-{i}")
        assert len(limiter._buckets) <= MAX_TRACKED_CLIENTS

    def test_invalid_params_rejected(self) -> None:
        with pytest.raises(ServiceError):
            RateLimiter(rate=0)
        with pytest.raises(ServiceError):
            RateLimiter(rate=1.0, burst=0)
        with pytest.raises(ServiceError):
            RateLimiter(max_concurrent=0)

    def test_client_key_prefers_principal(self) -> None:
        assert client_key(RequestContext(principal="p", client="c")) == "p"
        assert client_key(RequestContext(client="c")) == "c"
        assert client_key(RequestContext()) == "anonymous"

    def test_middleware_throttles_with_pinned_429(self) -> None:
        metrics = MetricsRegistry()
        limiter = RateLimiter(rate=1.0, burst=1, clock=FakeClock())
        middleware = RateLimitMiddleware(limiter, metrics=metrics)
        ctx = RequestContext(client="1.2.3.4")
        status, _ = middleware.handle(ctx, "/v1/query", None, lambda: (200, {}))
        assert status == 200
        status, body = middleware.handle(ctx, "/v1/query", None, lambda: (200, {}))
        assert status == 429
        assert body == encode_error(RateLimitedError(), 429)
        assert ctx.response_headers["Retry-After"] == "1"
        assert metrics.snapshot()["events"][THROTTLED_METRIC] == 1


# --------------------------------------------------------------------- #
# Access log
# --------------------------------------------------------------------- #
class TestAccessLog:
    def test_record_fields(self) -> None:
        stream = io.StringIO()
        log = AccessLog(stream, extra={"shard": 3})
        ctx = RequestContext(
            request_id="req-1", principal="alice", client="127.0.0.1", dataset="dblp"
        )
        ctx.note("cache_hit", True)
        log.write(ctx, "/v1/query", 200)
        record = json.loads(stream.getvalue())
        assert record["id"] == "req-1"
        assert record["principal"] == "alice"
        assert record["client"] == "127.0.0.1"
        assert record["endpoint"] == "/v1/query"
        assert record["dataset"] == "dblp"
        assert record["status"] == 200
        assert record["cache_hit"] is True
        assert record["shard"] == 3
        assert record["duration_ms"] >= 0
        assert "T" in record["ts"]

    def test_one_line_per_request(self) -> None:
        stream = io.StringIO()
        log = AccessLog(stream)
        for status in (200, 404, 503):
            log.write(RequestContext(), "/v1/size-l", status)
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["status"] for line in lines] == [200, 404, 503]

    def test_middleware_logs_final_status(self) -> None:
        stream = io.StringIO()
        middleware = AccessLogMiddleware(AccessLog(stream))
        ctx = RequestContext()
        middleware.handle(ctx, "/v1/query", None, lambda: (429, {}))
        assert json.loads(stream.getvalue())["status"] == 429

    def test_closed_stream_never_raises(self) -> None:
        stream = io.StringIO()
        log = AccessLog(stream)
        stream.close()
        log.write(RequestContext(), "/v1/query", 200)  # must not raise


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_render_counters_and_histogram(self) -> None:
        registry = MetricsRegistry()
        registry.observe("/v1/query", 200, 0.002)
        registry.observe("/v1/query", 200, 0.3)
        registry.observe("/v1/query", 400, 0.0005)
        registry.inc("repro_auth_failures_total", 2)
        text = registry.render()
        assert 'repro_requests_total{endpoint="/v1/query",status="200"} 2' in text
        assert 'repro_requests_total{endpoint="/v1/query",status="400"} 1' in text
        # buckets are cumulative: all 3 observations are <= +Inf
        assert (
            'repro_request_duration_seconds_bucket{endpoint="/v1/query",le="+Inf"} 3'
            in text
        )
        assert 'repro_request_duration_seconds_count{endpoint="/v1/query"} 3' in text
        assert "repro_auth_failures_total 2" in text

    def test_histogram_buckets_are_monotonic(self) -> None:
        registry = MetricsRegistry()
        for seconds in (0.0001, 0.004, 0.04, 0.4, 4.0, 40.0):
            registry.observe("/v1/batch", 200, seconds)
        counts = []
        for line in registry.render().splitlines():
            if line.startswith("repro_request_duration_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 6  # +Inf sees everything

    def test_cache_stats_section(self) -> None:
        """The per-dataset section renders an aggregate /v1/stats body:
        built entries yield samples, everything else is skipped."""
        registry = MetricsRegistry()
        body = {
            "dblp": {
                "dataset": "dblp",
                "cache": CacheStats(hits=5, misses=2).as_dict(),
                "dataset_version": 3,
                "watch_active": 1,
            },
            "tpch": {"dataset": "tpch", "built": False, "reloads": 0},
            "cluster": {"shards": 2, "ready": 1},
            "degraded": True,
            "missing_shards": [1],
        }
        text = registry.render(body)
        assert 'repro_cache_hits{dataset="dblp"} 5' in text
        assert 'repro_cache_misses{dataset="dblp"} 2' in text
        assert 'repro_dataset_version{dataset="dblp"} 3' in text
        assert 'repro_watch_active{dataset="dblp"} 1' in text
        labelled = {
            line.split('dataset="', 1)[1].split('"', 1)[0]
            for line in text.splitlines()
            if 'dataset="' in line
        }
        assert labelled == {"dblp"}

    def test_label_escaping(self) -> None:
        registry = MetricsRegistry()
        registry.observe('bad"label\n', 200, 0.001)
        text = registry.render()
        assert 'endpoint="bad\\"label\\n"' in text


# --------------------------------------------------------------------- #
# Pipeline composition
# --------------------------------------------------------------------- #
class _StubDispatcher:
    def __init__(self) -> None:
        self.calls: list[tuple[str, object]] = []

    def dispatch_safe(self, endpoint: str, payload: object = None):
        self.calls.append((endpoint, payload))
        ctx = current_context()
        assert ctx is not None  # the pipeline must install the context
        return 200, {"ok": True}


class TestPipeline:
    def test_disarmed_pipeline_passes_bodies_through(self) -> None:
        stub = _StubDispatcher()
        pipeline = build_pipeline(stub, None)
        status, body = pipeline.dispatch_safe("/v1/query", {"dataset": "x"})
        assert (status, body) == (200, {"ok": True})
        assert stub.calls == [("/v1/query", {"dataset": "x"})]
        assert pipeline.middlewares == ()

    def test_rejections_are_counted_and_logged(self) -> None:
        stream = io.StringIO()
        stub = _StubDispatcher()
        pipeline = MiddlewarePipeline(
            stub,
            [
                AccessLogMiddleware(AccessLog(stream)),
                AuthMiddleware(TokenAuthenticator({"tok": "alice"})),
            ],
        )
        status, body = pipeline.handle(
            RequestContext(credential="wrong"), "/v1/query", {"dataset": "x"}
        )
        assert status == 401
        assert body == encode_error(AuthenticationError(), 401)
        assert stub.calls == []  # never reached the dispatcher
        # the access log saw the *final* status, and metrics counted it
        assert json.loads(stream.getvalue())["status"] == 401
        assert pipeline.metrics.snapshot()["requests"][("/v1/query", 401)] == 1

    def test_context_carries_dataset_and_deadline(self) -> None:
        pipeline = build_pipeline(_StubDispatcher(), None)
        ctx = RequestContext()
        pipeline.handle(ctx, "/v1/query", {"dataset": "dblp", "deadline_ms": 250})
        assert ctx.dataset == "dblp"
        assert ctx.deadline_ms == 250
        assert ctx.annotations["dispatch_ms"] >= 0

    def test_build_pipeline_pinned_order(self, tmp_path) -> None:
        tokens = tmp_path / "tokens"
        tokens.write_text("tok\n", encoding="utf-8")
        config = MiddlewareConfig(
            auth_token_file=tokens,
            rate_limit=100.0,
            access_log=io.StringIO(),
        )
        assert config.armed
        pipeline = build_pipeline(_StubDispatcher(), config)
        kinds = [type(m).__name__ for m in pipeline.middlewares]
        assert kinds == ["AccessLogMiddleware", "AuthMiddleware", "RateLimitMiddleware"]

    def test_metrics_text_survives_failing_cache_hook(self) -> None:
        """A dispatcher that cannot answer /v1/stats (503: every shard
        restarting) degrades the scrape to request metrics only."""

        class Unavailable:
            def dispatch_safe(self, endpoint: str, payload: object = None):
                assert (endpoint, payload) == ("/v1/stats", {"allow_partial": True})
                return 503, encode_error(ServiceError("shard restarting"), 503)

        pipeline = build_pipeline(Unavailable(), None)
        text = pipeline.metrics_text()
        assert "repro_requests_total" in text
        assert "repro_cache_" not in text and "repro_dataset_version" not in text
        assert pipeline.metrics.snapshot()["requests"] == {}  # not self-counted


# --------------------------------------------------------------------- #
# The scrape reads the dispatcher's own /v1/stats
# --------------------------------------------------------------------- #
class TestDispatcherHooks:
    def test_cache_stats_by_dataset_is_non_building(self, dblp) -> None:
        """A scrape reads the aggregate /v1/stats, which never builds a
        dataset: no cache samples until a session exists."""
        deployment = Deployment().add("dblp", dataset=dblp)
        pipeline = build_pipeline(ServiceDispatcher(deployment), None)
        assert "repro_cache_" not in pipeline.metrics_text()  # nothing built
        assert deployment.describe("dblp")["built"] is False
        deployment.session("dblp")
        text = pipeline.metrics_text()
        assert 'repro_cache_hits{dataset="dblp"} 0' in text
        assert 'repro_dataset_version{dataset="dblp"} 0' in text


# --------------------------------------------------------------------- #
# HTTP integration: ids, 413, 401, 429, metrics, access log
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def module_deployment(dblp):
    return Deployment().add("dblp", dataset=dblp)


def _spawn(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def plain_server(module_deployment):
    server = create_server(module_deployment)
    thread = _spawn(server)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def armed(module_deployment, tmp_path_factory):
    """(server, log stream) with auth + generous rate limit + access log."""
    tokens = tmp_path_factory.mktemp("auth") / "tokens"
    tokens.write_text("alice:sesame\n", encoding="utf-8")
    stream = io.StringIO()
    config = MiddlewareConfig(
        auth_token_file=tokens, rate_limit=10_000.0, access_log=stream
    )
    server = create_server(module_deployment, middleware=config)
    thread = _spawn(server)
    yield server, stream
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def call(server, path, body=None, headers=None, method=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def last_log_line(stream: io.StringIO) -> dict:
    return json.loads(stream.getvalue().splitlines()[-1])


QUERY = {"dataset": "dblp", "keywords": ["Faloutsos"], "options": {"l": L}}
AUTH = {"Authorization": "Bearer sesame"}


class TestRequestIdEcho:
    def test_generated_id_on_success(self, plain_server) -> None:
        status, headers, _ = call(plain_server, "/v1/datasets")
        assert status == 200
        assert validate_request_id(headers[REQUEST_ID_HEADER])

    def test_client_id_honored(self, plain_server) -> None:
        status, headers, _ = call(
            plain_server, "/v1/datasets", headers={REQUEST_ID_HEADER: "trace-42"}
        )
        assert status == 200
        assert headers[REQUEST_ID_HEADER] == "trace-42"

    def test_invalid_id_is_400_with_fresh_id(self, plain_server) -> None:
        status, headers, raw = call(
            plain_server, "/v1/datasets", headers={REQUEST_ID_HEADER: "bad id!"}
        )
        assert status == 400
        body = json.loads(raw)
        assert body["error"]["type"] == "RequestValidationError"
        echoed = headers[REQUEST_ID_HEADER]
        assert echoed != "bad id!" and validate_request_id(echoed)

    def test_echoed_on_errors_and_405(self, plain_server) -> None:
        for path, body, method in (
            ("/v1/nope", None, None),  # 404
            ("/v1/query", None, "GET"),  # 405
            ("/v1/healthz", None, None),  # pre-pipeline
        ):
            _, headers, _ = call(plain_server, path, body, method=method)
            assert validate_request_id(headers[REQUEST_ID_HEADER])

    def test_id_echoed_on_armed_401(self, armed) -> None:
        server, _ = armed
        status, headers, _ = call(
            server, "/v1/datasets", headers={REQUEST_ID_HEADER: "auth-trace"}
        )
        assert status == 401
        assert headers[REQUEST_ID_HEADER] == "auth-trace"


class TestOversizedBody:
    def test_413_regression(self, plain_server) -> None:
        """A Content-Length above the cap is the pinned 413, not a 400."""
        conn = http.client.HTTPConnection(
            plain_server.server_address[0], plain_server.port, timeout=30
        )
        try:
            conn.putrequest("POST", "/v1/query")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 413
        assert payload["error"]["type"] == "PayloadTooLargeError"
        assert payload["error"]["status"] == 413
        assert str(MAX_BODY_BYTES) in payload["error"]["message"]
        assert validate_request_id(response.headers[REQUEST_ID_HEADER])

    def test_negative_length_still_400(self, plain_server) -> None:
        conn = http.client.HTTPConnection(
            plain_server.server_address[0], plain_server.port, timeout=30
        )
        try:
            conn.putrequest("POST", "/v1/query")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "RequestValidationError"


class TestArmedServing:
    def test_no_credential_is_pinned_401(self, armed) -> None:
        server, _ = armed
        status, headers, raw = call(server, "/v1/query", QUERY)
        assert status == 401
        assert json.loads(raw) == encode_error(AuthenticationError(), 401)
        assert headers["WWW-Authenticate"] == "Bearer"

    def test_wrong_credential_is_401(self, armed) -> None:
        server, _ = armed
        status, _, _ = call(
            server, "/v1/query", QUERY, headers={"Authorization": "Bearer nope"}
        )
        assert status == 401

    def test_good_credential_serves_and_logs_principal(self, armed) -> None:
        server, stream = armed
        status, _, raw = call(server, "/v1/query", QUERY, headers=AUTH)
        assert status == 200
        assert json.loads(raw)["results"]
        record = last_log_line(stream)
        assert record["principal"] == "alice"
        assert record["endpoint"] == "/v1/query"
        assert record["dataset"] == "dblp"
        assert record["status"] == 200
        assert isinstance(record["cache_hit"], bool)

    def test_cache_hit_flag_flips_on_warm_request(self, armed) -> None:
        server, stream = armed
        status, _, raw = call(server, "/v1/query", QUERY, headers=AUTH)
        assert status == 200
        subject = json.loads(raw)["results"][0]
        body = {
            "dataset": "dblp",
            "table": subject["table"],
            "row_id": subject["row_id"],
            "options": {"l": L},
        }
        call(server, "/v1/size-l", body, headers=AUTH)  # primes the cache
        status, _, _ = call(server, "/v1/size-l", body, headers=AUTH)
        assert status == 200
        assert last_log_line(stream)["cache_hit"] is True

    def test_one_cache_stats_snapshot_per_request(self, armed, monkeypatch) -> None:
        """The cache-hit note reads the computation counter directly, so
        the body's ``cache`` field is the request's only stats() call."""
        server, _ = armed
        calls: list[SummaryCache] = []
        stats = SummaryCache.stats

        def counting_stats(cache: SummaryCache) -> CacheStats:
            calls.append(cache)
            return stats(cache)

        monkeypatch.setattr(SummaryCache, "stats", counting_stats)
        status, _, _ = call(server, "/v1/query", QUERY, headers=AUTH)
        assert status == 200
        assert len(calls) == 1

    def test_health_and_metrics_skip_auth(self, armed) -> None:
        server, _ = armed
        status, _, raw = call(server, "/v1/healthz")
        assert status == 200 and json.loads(raw)["ok"] is True
        status, headers, raw = call(server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode("utf-8")
        assert 'status="401"' in text  # earlier rejections were counted
        assert AUTH_FAILURES_METRIC in text
        assert 'repro_cache_hits{dataset="dblp"}' in text

    def test_throttled_server_answers_pinned_429(self, module_deployment) -> None:
        config = MiddlewareConfig(rate_limit=0.001, rate_burst=1)
        server = create_server(module_deployment, middleware=config)
        thread = _spawn(server)
        try:
            status, _, _ = call(server, "/v1/datasets")
            assert status == 200
            status, headers, raw = call(server, "/v1/datasets")
            assert status == 429
            assert json.loads(raw) == encode_error(RateLimitedError(), 429)
            assert int(headers["Retry-After"]) >= 1
            text = call(server, "/v1/metrics")[2].decode("utf-8")
            assert THROTTLED_METRIC in text
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_max_concurrent_alone_arms_quota(self, module_deployment) -> None:
        config = MiddlewareConfig(max_concurrent=1)
        server = create_server(module_deployment, middleware=config)
        thread = _spawn(server)
        try:  # sequential requests never collide with a concurrency quota
            for _ in range(3):
                status, _, _ = call(server, "/v1/datasets")
                assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestMetricsEndpoint:
    def test_counters_accumulate(self, plain_server) -> None:
        call(plain_server, "/v1/datasets")
        call(plain_server, "/v1/nope")
        status, _, raw = call(plain_server, "/v1/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        assert 'repro_requests_total{endpoint="/v1/datasets",status="200"}' in text
        assert 'repro_requests_total{endpoint="/v1/nope",status="404"}' in text
        assert "repro_request_duration_seconds_bucket" in text

    def test_post_to_metrics_is_405(self, plain_server) -> None:
        status, headers, _ = call(plain_server, "/v1/metrics", {"x": 1})
        assert status == 405
        assert headers["Allow"] == "GET"


# --------------------------------------------------------------------- #
# Supervisor stderr-log rotation
# --------------------------------------------------------------------- #
class TestStderrRotation:
    def test_old_generations_pruned_and_survivors_capped(self, tmp_path) -> None:
        for generation in range(1, 6):
            path = tmp_path / f"stderr-0-{generation}.log"
            path.write_bytes(b"x" * 100 + str(generation).encode())
        other = tmp_path / "stderr-1-1.log"
        other.write_bytes(b"other shard")
        _prune_stderr_logs(tmp_path, 0, keep=2, cap_bytes=10)
        kept = sorted(p.name for p in tmp_path.glob("stderr-0-*.log"))
        assert kept == ["stderr-0-4.log", "stderr-0-5.log"]
        for name in kept:
            content = (tmp_path / name).read_bytes()
            assert len(content) == 10
            assert content.endswith(name[-5].encode())  # the tail survived
        assert other.read_bytes() == b"other shard"  # other shards untouched

    def test_small_logs_left_alone(self, tmp_path) -> None:
        path = tmp_path / "stderr-2-1.log"
        path.write_bytes(b"short")
        _prune_stderr_logs(tmp_path, 2, keep=3, cap_bytes=1024)
        assert path.read_bytes() == b"short"

    def test_non_generation_files_ignored(self, tmp_path) -> None:
        weird = tmp_path / "stderr-0-notanumber.log"
        weird.write_bytes(b"keep me")
        _prune_stderr_logs(tmp_path, 0, keep=1, cap_bytes=1)
        assert weird.read_bytes() == b"keep me"
