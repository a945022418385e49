"""The stdlib-only HTTP front end (``repro serve``).

A ``ThreadingHTTPServer`` (one thread per connection, each request
running serially on its connection's thread) serving the
:class:`~repro.service.dispatch.ServiceDispatcher` endpoint table:

=========================  ======  =====================================
path                       method  body
=========================  ======  =====================================
``/v1/query``              POST    query request (keywords, options,
                                   cursor, page_size)
``/v1/size-l``             POST    size-l request (table, row_id, options)
``/v1/batch``              POST    batch request (subjects, options)
``/v1/mutate``             POST    transactional writes (operations)
``/v1/watch``              POST    register a continual query (keywords, k)
``/v1/watch/poll``         POST    long-poll a watch (after_version)
``/v1/watch/cancel``       POST    cancel a watch
``/v1/datasets``           GET     —
``/v1/stats``              GET     optional ``?dataset=name``
``/v1/metrics``            GET     Prometheus text exposition
``/v1/admin/invalidate``   POST    ``{dataset, table?, row_id?}``
``/v1/admin/reload``       POST    ``{dataset}``
=========================  ======  =====================================

Every API response is JSON.  Failures use the pinned error body
(:func:`~repro.service.protocol.encode_error`) and status codes
(:func:`~repro.service.dispatch.status_for`): 400 validation, 401
rejected credential (when serving with an auth token file), 404 unknown
dataset/endpoint, 405 wrong method, 409 rejected snapshot reload, 413
oversized body, 429 throttled (when serving with rate limits), 500 bugs,
503 transient unavailability (with a ``Retry-After`` header when a shard
is down — the request was not served and retrying is safe), 504 deadline
exhaustion.  A failed request — including a mismatched
``/v1/admin/reload`` — never takes the server down.

Requests flow through the server's
:class:`~repro.service.middleware.MiddlewarePipeline` (built from the
``middleware=`` config; the default config arms nothing and leaves every
body byte-identical to a bare dispatcher).  The handler's own job is
edge work only: minting the :class:`RequestContext`, parsing headers,
and serializing the pipeline's answer.

Reliability and observability hooks:

* every response (success, error, 405, health) echoes
  ``X-Repro-Request-Id`` — the client's validated id when supplied, a
  generated one otherwise — and the same id follows the request across
  router→worker hops;
* an ``X-Repro-Deadline-Ms`` header on any POST sets the request's
  end-to-end budget (equivalent to a ``deadline_ms`` body field, which
  wins when both are present);
* ``GET /v1/stats?allow_partial=1`` opts into a degraded partial merge
  when the deployment is a cluster with unavailable shards;
* ``GET /v1/healthz`` and ``GET /v1/metrics`` answer before the pipeline
  (no auth, no throttling, no self-counting): liveness probes and
  scrapes must keep working while clients are being rejected.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.service.deployment import Deployment
from repro.service.dispatch import ServiceDispatcher, status_for
from repro.service.middleware import (
    REQUEST_ID_HEADER,
    MiddlewareConfig,
    MiddlewarePipeline,
    RequestContext,
    build_pipeline,
    new_request_id,
    validate_request_id,
)
from repro.service.protocol import encode_error
from repro.errors import (
    PayloadTooLargeError,
    RequestValidationError,
    ServiceError,
)

#: Request bodies above this are rejected up front (64 MiB — far above any
#: legitimate batch, small enough to keep a stray client from ballooning RSS).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: POST header carrying the end-to-end budget (milliseconds, >= 1).
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: The Prometheus text exposition content type.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_GET_ENDPOINTS = ("/v1/datasets", "/v1/stats", "/v1/healthz", "/v1/metrics")
_POST_ENDPOINTS = (
    "/v1/query",
    "/v1/size-l",
    "/v1/batch",
    "/v1/mutate",
    "/v1/watch",
    "/v1/watch/poll",
    "/v1/watch/cancel",
    "/v1/admin/invalidate",
    "/v1/admin/reload",
)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the middleware pipeline; owns no state of its own."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # quiet by default; the serving loop is not a place for per-request prints
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # Edge context
    # ------------------------------------------------------------------ #
    def _begin(self) -> "RequestContext | None":
        """Mint this request's context from transport headers.

        An invalid client-supplied ``X-Repro-Request-Id`` is a 400 (sent
        here, echoing a *fresh* id — the bad one is never reflected);
        ``None`` tells the caller the response is already on the wire.
        """
        client = self.client_address[0] if self.client_address else None
        credential = None
        authorization = self.headers.get("Authorization")
        if authorization is not None:
            scheme, _, rest = authorization.partition(" ")
            if scheme.lower() == "bearer":
                credential = rest.strip()
        raw_id = self.headers.get(REQUEST_ID_HEADER)
        ctx = RequestContext(client=client, credential=credential)
        if raw_id is not None:
            try:
                ctx.request_id = validate_request_id(raw_id)
            except RequestValidationError as exc:
                ctx.request_id = new_request_id()
                self._send_json(400, encode_error(exc, 400), ctx=ctx)
                return None
        return ctx

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #
    def _send_json(
        self,
        status: int,
        body: dict[str, Any],
        extra_headers: "dict[str, str] | None" = None,
        *,
        ctx: "RequestContext | None" = None,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self._send_context_headers(ctx)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(
        self, status: int, text: str, content_type: str, ctx: "RequestContext | None"
    ) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self._send_context_headers(ctx)
        self.end_headers()
        self.wfile.write(payload)

    def _send_context_headers(self, ctx: "RequestContext | None") -> None:
        if ctx is None:
            return
        self.send_header(REQUEST_ID_HEADER, ctx.request_id)
        for name, value in ctx.response_headers.items():
            self.send_header(name, value)

    def _send_dispatch(
        self, ctx: RequestContext, status: int, body: dict[str, Any]
    ) -> None:
        """Send a pipeline reply, decorating transient failures.

        A 503 whose body is the pinned ``ShardUnavailableError`` means
        the request was never served (a shard is down or restarting) —
        exactly the case HTTP's ``Retry-After`` exists for.  (Throttled
        429s carry their own ``Retry-After`` via the context's response
        headers.)
        """
        extra = None
        if status == 503 and isinstance(body, dict):
            error = body.get("error")
            if isinstance(error, dict) and error.get("type") == "ShardUnavailableError":
                extra = {"Retry-After": "1"}
        self._send_json(status, body, extra, ctx=ctx)

    def _send_edge_error(self, ctx: RequestContext, path: str, exc: Exception) -> None:
        """A transport-level reject (bad length, oversized body).

        These never reach the pipeline, but they still count: the metrics
        registry records them so a client flooding 413s is visible on
        ``/v1/metrics``.
        """
        status = status_for(exc, path)
        self.server.pipeline.metrics.observe(
            path, status, max(0.0, ctx.elapsed_ms() / 1000.0)
        )
        self._send_json(status, encode_error(exc, status), ctx=ctx)

    # ------------------------------------------------------------------ #
    # Request reading
    # ------------------------------------------------------------------ #
    def _read_body(self) -> object:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise RequestValidationError(
                f"invalid Content-Length header {raw_length!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            # the declared size alone rejects the request: the body is
            # never read, so a 64 GiB Content-Length costs nothing
            raise PayloadTooLargeError(length, MAX_BODY_BYTES)
        if length < 0:
            # negative lengths matter: rfile.read(-1) would block on the
            # open socket until client EOF, pinning this handler thread
            raise RequestValidationError(
                f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]"
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RequestValidationError(f"request body is not valid JSON: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Methods
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        ctx = self._begin()
        if ctx is None:
            return
        split = urlsplit(self.path)
        if split.path in _POST_ENDPOINTS:
            self._method_not_allowed("POST", ctx)
            return
        if split.path == "/v1/healthz":
            # liveness must stay allocation-cheap and session-build-free:
            # it answers before (and instead of) the pipeline machinery
            self._send_json(200, self.server.dispatcher.healthz(), ctx=ctx)
            return
        if split.path == "/v1/metrics":
            # scrapes bypass auth/throttling and do not count themselves
            self._send_text(
                200, self.server.pipeline.metrics_text(), METRICS_CONTENT_TYPE, ctx
            )
            return
        payload: dict[str, Any] | None = None
        query = parse_qs(split.query)
        if "dataset" in query:
            payload = {"dataset": query["dataset"][0]}
        if split.path == "/v1/stats" and query.get("allow_partial", [""])[0] in (
            "1",
            "true",
        ):
            payload = dict(payload or {})
            payload["allow_partial"] = True
        # unknown paths flow through the pipeline too, so the 404 body
        # carries the same UnknownEndpointError type every transport uses
        status, body = self.server.pipeline.handle(ctx, split.path, payload)
        self._send_dispatch(ctx, status, body)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        ctx = self._begin()
        if ctx is None:
            return
        split = urlsplit(self.path)
        if split.path in _GET_ENDPOINTS:
            self._method_not_allowed("GET", ctx)
            return
        try:
            payload = self._read_body()
        except ServiceError as exc:  # RequestValidationError or PayloadTooLargeError
            self._send_edge_error(ctx, split.path, exc)
            return
        raw_deadline = self.headers.get(DEADLINE_HEADER)
        if raw_deadline is not None:
            try:
                deadline_ms = int(raw_deadline.strip())
                if deadline_ms < 1:
                    raise ValueError
            except ValueError:
                exc = RequestValidationError(
                    f"invalid {DEADLINE_HEADER} header {raw_deadline!r}: "
                    "expected an integer millisecond budget >= 1"
                )
                self._send_json(400, encode_error(exc, 400), ctx=ctx)
                return
            # the body field wins when both are present (it is the wire
            # protocol's native spelling; the header is sugar for clients
            # that cannot touch the body)
            if isinstance(payload, dict) and "deadline_ms" not in payload:
                payload = dict(payload)
                payload["deadline_ms"] = deadline_ms
        status, body = self.server.pipeline.handle(ctx, split.path, payload)
        self._send_dispatch(ctx, status, body)

    def _method_not_allowed(self, allowed: str, ctx: RequestContext) -> None:
        body = encode_error(
            ServiceError(
                f"method {self.command} not allowed on {self.path}; use {allowed}"
            ),
            405,
        )
        self._send_json(405, body, {"Allow": allowed}, ctx=ctx)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one dispatcher.

    "Dispatcher" means anything with two methods: ``dispatch_safe(endpoint,
    payload) -> (status, body)`` and ``healthz() -> body``.  The
    single-process :class:`ServiceDispatcher` and the cluster's
    scatter/gather router both have them — the front end cannot tell them
    apart, which is how ``repro serve --shards N`` reuses this file
    unchanged.  ``GET /v1/metrics`` reads the dispatcher's own aggregate
    ``/v1/stats`` answer (:meth:`MiddlewarePipeline.metrics_text`).

    ``middleware`` is either a :class:`MiddlewareConfig` (the stack is
    built here, in the pinned order) or a pre-built
    :class:`MiddlewarePipeline` (tests composing their own stacks).
    ``None`` means the disarmed default: metrics only, every body
    byte-identical to a bare dispatcher.
    """

    daemon_threads = True  # a hung client connection must not block shutdown

    def __init__(
        self,
        address: tuple[str, int],
        dispatcher: "ServiceDispatcher | Any",
        *,
        verbose: bool = False,
        middleware: "MiddlewareConfig | MiddlewarePipeline | None" = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.dispatcher = dispatcher
        self.verbose = verbose
        if isinstance(middleware, MiddlewarePipeline):
            self.pipeline = middleware
        else:
            self.pipeline = build_pipeline(dispatcher, middleware)

    def server_close(self) -> None:
        # a failed bind calls server_close() from inside super().__init__,
        # before the pipeline attribute exists
        pipeline = getattr(self, "pipeline", None)
        try:
            if pipeline is not None:
                pipeline.close()
        finally:
            super().server_close()

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when constructed with port 0)."""
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def create_server(
    deployment: Deployment,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    middleware: "MiddlewareConfig | MiddlewarePipeline | None" = None,
) -> ServiceHTTPServer:
    """Bind (but do not run) a server over *deployment*.

    ``port=0`` binds an ephemeral port — read it back via ``server.port``.
    Run with ``server.serve_forever()`` (blocking) or wrap in a thread::

        server = create_server(deployment, port=8077)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown()
    """
    return ServiceHTTPServer(
        (host, port),
        ServiceDispatcher(deployment),
        verbose=verbose,
        middleware=middleware,
    )


def serve(
    deployment: Deployment,
    *,
    host: str = "127.0.0.1",
    port: int = 8077,
    verbose: bool = False,
    middleware: "MiddlewareConfig | MiddlewarePipeline | None" = None,
    ready: "threading.Event | None" = None,
) -> None:
    """Blocking convenience: bind and serve until interrupted.

    ``ready`` (if given) is set once the socket is bound — the hook
    in-process callers use to know the ephemeral port is readable.
    """
    server = create_server(
        deployment, host=host, port=port, verbose=verbose, middleware=middleware
    )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    finally:
        server.server_close()
