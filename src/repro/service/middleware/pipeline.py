"""The composable middleware pipeline both topologies serve through.

A :class:`MiddlewarePipeline` wraps anything dispatcher-shaped
(``dispatch_safe(endpoint, payload) -> (status, body)`` — the
single-process :class:`~repro.service.dispatch.ServiceDispatcher` or the
cluster's :class:`~repro.cluster.router.ClusterRouter`) and threads every
request through an ordered middleware stack under one
:class:`~repro.service.middleware.context.RequestContext`:

.. code-block:: text

    edge (HTTP handler / CLI / test)
      └─ access log          (outermost: logs the FINAL status, 401/429 included)
           └─ metrics        (always on: counters + latency histograms)
                └─ auth      (armed by --auth-token-file; pinned 401)
                     └─ rate limit  (armed by --rate-limit/--max-concurrent; pinned 429)
                          └─ dispatcher.dispatch_safe(...)   (bodies unchanged)

The **disarmed** configuration (no auth, no limits, no log) is just
metrics + context — it never touches a body, which is what keeps every
response byte-identical to the pre-middleware service and lets the
benchmark gate its overhead in microseconds.

The pipeline is itself dispatcher-shaped (:meth:`dispatch_safe` mints a
context), so it can be stacked wherever a dispatcher is expected.
``GET /v1/metrics`` (:meth:`metrics_text`) renders the request metrics
above the dispatcher's own aggregate ``/v1/stats`` answer — the same
reading ``/v1/stats`` serves, one ``/v1/stats`` per worker on a cluster.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol, TextIO

from repro.service.middleware.accesslog import AccessLog, AccessLogMiddleware
from repro.service.middleware.auth import AuthMiddleware, TokenAuthenticator
from repro.service.middleware.context import (
    RequestContext,
    context_scope,
)
from repro.service.middleware.metrics import MetricsRegistry
from repro.service.middleware.ratelimit import RateLimiter, RateLimitMiddleware


class Middleware(Protocol):  # pragma: no cover - typing only
    def handle(
        self,
        ctx: RequestContext,
        endpoint: str,
        payload: object,
        forward: Callable[[], tuple[int, dict]],
    ) -> tuple[int, dict]: ...


@dataclass(frozen=True)
class MiddlewareConfig:
    """The serve-time recipe for a pipeline (all gates off by default).

    The default config arms nothing: requests flow through context +
    metrics only and every body stays byte-identical to a bare
    dispatcher.  ``access_log`` accepts a path, ``"-"`` for stderr, or an
    open text stream.
    """

    auth_token_file: "str | Path | None" = None
    #: per-client admission rate, requests/second (None = unlimited)
    rate_limit: "float | None" = None
    #: bucket capacity; defaults to 2x the (ceiled) rate
    rate_burst: "int | None" = None
    #: per-client in-flight request cap (None = unlimited)
    max_concurrent: "int | None" = None
    access_log: "str | Path | TextIO | None" = None

    @property
    def armed(self) -> bool:
        """Whether any admission gate (auth / limits) is configured."""
        return (
            self.auth_token_file is not None
            or self.rate_limit is not None
            or self.max_concurrent is not None
        )


class MiddlewarePipeline:
    """An ordered middleware stack over one dispatcher."""

    def __init__(
        self,
        dispatcher: Any,
        middlewares: "tuple[Middleware, ...] | list[Middleware]" = (),
        *,
        metrics: "MetricsRegistry | None" = None,
        access_log: "AccessLog | None" = None,
    ) -> None:
        self.dispatcher = dispatcher
        self.middlewares = tuple(middlewares)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: kept so :meth:`close` can release an owned log file
        self._access_log = access_log

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def handle(
        self, ctx: RequestContext, endpoint: str, payload: object = None
    ) -> tuple[int, dict[str, Any]]:
        """Run one request through the stack; never raises.

        The context is installed thread-locally for the duration, so the
        dispatcher (and the cluster router's forwarding) can read it
        without threading it through every signature.
        """
        ctx.endpoint = endpoint
        if isinstance(payload, dict):
            dataset = payload.get("dataset")
            if isinstance(dataset, str):
                ctx.dataset = dataset
            deadline = payload.get("deadline_ms")
            if isinstance(deadline, int) and not isinstance(deadline, bool):
                ctx.deadline_ms = deadline

        def terminal() -> tuple[int, dict[str, Any]]:
            start = time.monotonic()
            status, body = self.dispatcher.dispatch_safe(endpoint, payload)
            ctx.note("dispatch_ms", (time.monotonic() - start) * 1000.0)
            return status, body

        handler: Callable[[], tuple[int, dict[str, Any]]] = terminal
        for middleware in reversed(self.middlewares):
            handler = self._bind(middleware, ctx, endpoint, payload, handler)
        with context_scope(ctx):
            status, body = handler()
        # observed here, above the whole stack, so rejected requests
        # (401/429) land in the counters and histograms too
        self.metrics.observe(endpoint, status, time.monotonic() - ctx.start)
        return status, body

    @staticmethod
    def _bind(
        middleware: Middleware,
        ctx: RequestContext,
        endpoint: str,
        payload: object,
        forward: Callable[[], tuple[int, dict[str, Any]]],
    ) -> Callable[[], tuple[int, dict[str, Any]]]:
        def step() -> tuple[int, dict[str, Any]]:
            return middleware.handle(ctx, endpoint, payload, forward)

        return step

    def dispatch_safe(
        self, endpoint: str, payload: object = None
    ) -> tuple[int, dict[str, Any]]:
        """Dispatcher-shaped entry: mints an anonymous edge context."""
        return self.handle(RequestContext(), endpoint, payload)

    # ------------------------------------------------------------------ #
    # Observability surface
    # ------------------------------------------------------------------ #
    def metrics_text(self) -> str:
        """The ``GET /v1/metrics`` Prometheus text body.

        The per-dataset section renders the dispatcher's own aggregate
        ``/v1/stats`` answer, so both endpoints read one record on either
        topology (partial on a cluster: a shard that does not answer
        within ``partial_patience`` is skipped).  The call bypasses the
        middleware stack and does not count itself; a non-200 answer
        degrades to request metrics only — a scrape must never 500
        because one shard is restarting.
        """
        status, body = self.dispatcher.dispatch_safe("/v1/stats", {"allow_partial": True})
        return self.metrics.render(body if status == 200 else None)

    def close(self) -> None:
        if self._access_log is not None:
            self._access_log.close()


def build_pipeline(
    dispatcher: Any,
    config: "MiddlewareConfig | None" = None,
    *,
    metrics: "MetricsRegistry | None" = None,
) -> MiddlewarePipeline:
    """Assemble the pinned-order stack for *config* over *dispatcher*."""
    config = config if config is not None else MiddlewareConfig()
    registry = metrics if metrics is not None else MetricsRegistry()
    stack: list[Middleware] = []
    access_log: AccessLog | None = None
    if config.access_log is not None:
        access_log = AccessLog(config.access_log)
        stack.append(AccessLogMiddleware(access_log))
    if config.auth_token_file is not None:
        stack.append(
            AuthMiddleware(
                TokenAuthenticator.from_file(config.auth_token_file),
                metrics=registry,
            )
        )
    if config.rate_limit is not None or config.max_concurrent is not None:
        limiter = RateLimiter(
            rate=config.rate_limit,
            burst=config.rate_burst,
            max_concurrent=config.max_concurrent,
        )
        stack.append(RateLimitMiddleware(limiter, metrics=registry))
    return MiddlewarePipeline(
        dispatcher, stack, metrics=registry, access_log=access_log
    )
