"""The transport-agnostic request dispatcher.

One :class:`ServiceDispatcher` sits between a :class:`~repro.service.Deployment`
and any transport.  It has two layers:

* a **typed** layer (:meth:`query`, :meth:`size_l`, :meth:`batch`, ...) —
  typed request in, typed response out; this is what in-process callers
  and tests use;
* a **dict** layer (:meth:`dispatch` / :meth:`dispatch_safe`) — endpoint
  name + JSON-shaped dict in, JSON-shaped dict out, with the library's
  typed errors mapped onto the pinned status codes.  The HTTP front end
  and the codec-overhead benchmark both speak this layer, so measured
  dispatch overhead is exactly what a served request pays minus the
  socket.

Pinned status mapping (also carried inside the error body):

======  =================================================================
status  errors
======  =================================================================
400     :class:`~repro.errors.RequestValidationError` and every other
        :class:`~repro.errors.ReproError` a request provokes (bad
        options, unknown tables, ...)
401     :class:`~repro.errors.AuthenticationError` — rejected bearer
        credential (auth middleware; the dispatcher never raises it)
404     :class:`~repro.errors.UnknownDatasetError`,
        :class:`~repro.errors.UnknownWatchError`, unknown endpoints
413     :class:`~repro.errors.PayloadTooLargeError` — request body over
        the transport cap; the body was never read
429     :class:`~repro.errors.RateLimitedError` — per-client admission
        control rejected the request (rate-limit middleware)
409     :class:`~repro.errors.PersistError` (mismatch/corruption) on
        ``/v1/admin/reload`` only — the deployment keeps serving its
        previous state
500     anything else, including a :class:`PersistError` outside reload
        (e.g. a corrupt snapshot path hit by a lazy first build) — a
        server-side problem, not a client error
503     :class:`~repro.errors.BackendIOError` — a transient backend IO
        failure; no partial state was left behind, retrying is safe
        (the cluster router's :class:`~repro.errors.ShardUnavailableError`
        maps here too)
504     :class:`~repro.errors.DeadlineExceededError` — the request's
        ``deadline_ms`` budget expired mid-flight and the work was
        cancelled; the body is pinned and identical on every topology
======  =================================================================

Deadlines: a request carrying ``deadline_ms`` (or the HTTP
``X-Repro-Deadline-Ms`` header) runs inside a
:func:`~repro.reliability.deadline.deadline_scope` — generation loops,
selection kernels, and backend IO all checkpoint against it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.options import QueryOptions
from repro.errors import (
    AuthenticationError,
    BackendIOError,
    DeadlineExceededError,
    PayloadTooLargeError,
    PersistError,
    RateLimitedError,
    ReproError,
    RequestValidationError,
    UnknownDatasetError,
    UnknownWatchError,
)
from repro.reliability.deadline import deadline_scope
from repro.search.keyword import DataSubjectMatch
from repro.service.middleware.context import current_context
from repro.service.deployment import Deployment
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    Cursor,
    InvalidateRequest,
    MutateRequest,
    QueryRequest,
    QueryResponse,
    ReloadRequest,
    SizeLRequest,
    SizeLResponse,
    WatchCancelRequest,
    WatchPollRequest,
    WatchRequest,
    decode_batch_request,
    decode_invalidate_request,
    decode_mutate_request,
    decode_query_request,
    decode_reload_request,
    decode_size_l_request,
    decode_watch_cancel_request,
    decode_watch_poll_request,
    decode_watch_request,
    encode_error,
    encode_response,
    request_deadline,
    result_entry,
)

#: The service's endpoint table (paths as the HTTP front end mounts them).
ENDPOINTS = (
    "/v1/query",
    "/v1/size-l",
    "/v1/batch",
    "/v1/mutate",
    "/v1/watch",
    "/v1/watch/poll",
    "/v1/watch/cancel",
    "/v1/datasets",
    "/v1/stats",
    "/v1/admin/invalidate",
    "/v1/admin/reload",
)


def status_for(exc: BaseException, endpoint: str | None = None) -> int:
    """The pinned HTTP status of a dispatch failure on *endpoint*."""
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, BackendIOError):
        # transient server-side IO: the request left no partial state —
        # 503 tells clients to retry, unlike the 500 bug bucket
        return 503
    if isinstance(exc, AuthenticationError):
        return 401
    if isinstance(exc, RateLimitedError):
        return 429
    if isinstance(exc, PayloadTooLargeError):
        return 413
    if isinstance(exc, (UnknownDatasetError, UnknownWatchError)):
        return 404
    if isinstance(exc, PersistError):
        # 409 is the reload contract ("replacement rejected, still
        # serving"); a persist failure anywhere else is the server's
        # problem (broken snapshot config), not the client's
        return 409 if endpoint == "/v1/admin/reload" else 500
    if isinstance(exc, (RequestValidationError, ReproError)):
        return 400
    return 500


def page_window(
    matches: Sequence[DataSubjectMatch],
    cursor: Cursor | None,
    page_size: int | None,
) -> tuple[int, int, Cursor | None]:
    """One page of a ranked match list: ``(start, stop, next_cursor)``.

    The page is ``matches[start:stop]``.  A cursor resumes *after* its
    ``(rank, table, row_id)`` and is first verified against *matches*,
    so a ranking that changed between pages is the pinned stale-cursor
    400 instead of silently skipped or repeated results.
    ``next_cursor`` names the page's last entry, or is ``None`` when
    nothing follows it.  The single process and the cluster router both
    page through here, so a cursor means the same on any shard count.
    """
    start = 0
    if cursor is not None:
        stable = cursor.rank < len(matches) and (
            matches[cursor.rank].table == cursor.table
            and matches[cursor.rank].row_id == cursor.row_id
        )
        if not stable:
            raise RequestValidationError(
                f"stale cursor: rank {cursor.rank} is no longer "
                f"{cursor.table}#{cursor.row_id} in the current ranking; "
                "restart the query without a cursor"
            )
        start = cursor.rank + 1
    stop = len(matches) if page_size is None else min(start + page_size, len(matches))
    next_cursor = None
    if start < stop < len(matches):
        last = matches[stop - 1]
        next_cursor = Cursor(rank=stop - 1, table=last.table, row_id=last.row_id)
    return start, stop, next_cursor


class ServiceDispatcher:
    """Typed + dict request handling over one :class:`Deployment`."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment

    # ------------------------------------------------------------------ #
    # Typed layer
    # ------------------------------------------------------------------ #
    def _cache_counters(self, session: Any) -> dict[str, int]:
        return session.cache.stats().as_dict()

    def _computations_before(self, session: Any) -> "int | None":
        """Pre-work computation count, only when a request context wants it.

        The access-log ``cache_hit`` flag means "the cache computed
        nothing new for this request" — observable as an unchanged
        ``result_computations`` counter, read directly: a full
        :meth:`~repro.core.cache.SummaryCache.stats` snapshot costs time
        linear in the cached subjects, and the body's ``cache`` field
        takes the request's one snapshot.  Outside a middleware pipeline
        (no installed context) the read is skipped entirely, so the typed
        layer's behavior and cost are unchanged for embedders.
        """
        if current_context() is None:
            return None
        return session.cache.result_computations

    def _note_cache_hit(self, session: Any, before: "int | None") -> None:
        if before is None:
            return
        ctx = current_context()
        if ctx is not None:
            ctx.note("cache_hit", session.cache.result_computations == before)

    def query(self, request: QueryRequest) -> QueryResponse:
        """One page of a keyword query (the whole query without a cursor).

        The ranked match list is recomputed (keyword search is the cheap
        half of the pipeline); the expensive size-l OSs are computed only
        for the page :func:`page_window` cuts from it.
        """
        session = self.deployment.session(request.dataset)
        before = self._computations_before(session)
        keywords = list(request.keywords)
        options = request.options
        # the session guard pins one dataset version for the whole answer:
        # search, generation, AND rendering (render() reads db rows too) —
        # a concurrent commit waits rather than tearing the response
        with session.guard().read():
            matches = session.engine.search_matches(keywords, options)
            start, stop, next_cursor = page_window(
                matches, request.cursor, request.page_size
            )
            page = matches[start:stop]
            results = session.size_l_many(
                [(match.table, match.row_id) for match in page], options=options
            )
            entries = tuple(
                result_entry(
                    start + i, match.table, match.row_id, match.importance, result
                )
                for i, (match, result) in enumerate(zip(page, results))
            )
            version = session.dataset_version
        self._note_cache_hit(session, before)
        return QueryResponse(
            dataset=request.dataset,
            keywords=tuple(keywords),
            results=entries,
            total_matches=len(matches),
            next_cursor=next_cursor,
            cache=self._cache_counters(session),
            dataset_version=version,
        )

    def size_l(self, request: SizeLRequest) -> SizeLResponse:
        session = self.deployment.session(request.dataset)
        before = self._computations_before(session)
        with session.guard().read():
            result = session.size_l(
                request.table, request.row_id, options=request.options
            )
            importance = session.engine.store.importance(
                request.table, request.row_id
            )
            entry = result_entry(0, request.table, request.row_id, importance, result)
            version = session.dataset_version
        self._note_cache_hit(session, before)
        return SizeLResponse(
            dataset=request.dataset,
            result=entry,
            cache=self._cache_counters(session),
            dataset_version=version,
        )

    def batch(self, request: BatchRequest) -> BatchResponse:
        session = self.deployment.session(request.dataset)
        before = self._computations_before(session)
        with session.guard().read():
            results = session.size_l_many(
                list(request.subjects), options=request.options
            )
            store = session.engine.store
            entries = tuple(
                result_entry(i, table, row_id, store.importance(table, row_id), result)
                for i, ((table, row_id), result) in enumerate(
                    zip(request.subjects, results)
                )
            )
            version = session.dataset_version
        self._note_cache_hit(session, before)
        return BatchResponse(
            dataset=request.dataset,
            results=entries,
            cache=self._cache_counters(session),
            dataset_version=version,
        )

    # ------------------------------------------------------------------ #
    # Mutations and continual queries
    # ------------------------------------------------------------------ #
    def mutate(self, request: MutateRequest) -> dict[str, Any]:
        """Apply one transaction; the response names every dirty subject."""
        session = self.deployment.session(request.dataset)
        commit = session.apply_mutations(request.operations)
        return {
            "protocol_version": PROTOCOL_VERSION,
            "dataset": request.dataset,
            "dataset_version": commit.version,
            "applied": commit.commit.applied,
            "dirty_subjects": commit.dirty_by_table(),
            "watch_notifications": commit.notified,
        }

    def watch(self, request: WatchRequest) -> dict[str, Any]:
        """Register a continual query; the body carries its baseline top-k."""
        session = self.deployment.session(request.dataset)
        live = session.live_state()
        watch, version = live.register_watch(
            list(request.keywords), request.k, watch_id=request.watch_id
        )
        return {
            "protocol_version": PROTOCOL_VERSION,
            "dataset": request.dataset,
            "watch_id": watch.watch_id,
            "dataset_version": version,
            "top_k": list(watch.last_top),
        }

    def watch_poll(self, request: WatchPollRequest) -> dict[str, Any]:
        session = self.deployment.session(request.dataset)
        live = session.live_state()
        watch, notifications, version = live.poll_watch(
            request.watch_id, request.after_version, request.timeout_ms / 1000.0
        )
        return {
            "protocol_version": PROTOCOL_VERSION,
            "dataset": request.dataset,
            "watch_id": watch.watch_id,
            "dataset_version": version,
            "notifications": notifications,
        }

    def watch_cancel(self, request: WatchCancelRequest) -> dict[str, Any]:
        session = self.deployment.session(request.dataset)
        live = session.live
        cancelled = live.cancel_watch(request.watch_id) if live else False
        return {
            "protocol_version": PROTOCOL_VERSION,
            "dataset": request.dataset,
            "watch_id": request.watch_id,
            "cancelled": cancelled,
        }

    def datasets(self) -> dict[str, Any]:
        return {"datasets": self.deployment.describe()}

    def stats(self, dataset: str | None = None) -> dict[str, Any]:
        """Serving statistics: one dataset (built on demand) or all.

        The aggregate form is **non-building** — a monitoring probe on a
        freshly booted multi-dataset server must not synthesize every
        hosted dataset; unbuilt entries report their registry metadata
        (``built: false``) instead.  Naming a dataset explicitly is the
        opt-in to building it.
        """
        if dataset is not None:
            return self.deployment.stats(dataset)
        return {
            name: (
                self.deployment.stats(name)
                if self.deployment.describe(name)["built"]
                else self.deployment.describe(name)
            )
            for name in self.deployment.names()
        }

    def healthz(self) -> dict[str, Any]:
        """The ``GET /v1/healthz`` body: the hosted names, no session built."""
        return {
            "ok": True,
            "role": "single-process",
            "datasets": self.deployment.names(),
        }

    def invalidate(self, request: InvalidateRequest) -> dict[str, Any]:
        self.deployment.invalidate(request.dataset, request.table, request.row_id)
        return {
            "dataset": request.dataset,
            "invalidated": {"table": request.table, "row_id": request.row_id},
        }

    def reload(self, request: ReloadRequest) -> dict[str, Any]:
        return self.deployment.reload(request.dataset)

    # ------------------------------------------------------------------ #
    # Dict layer
    # ------------------------------------------------------------------ #
    def _session_defaults(self, payload: object) -> QueryOptions | None:
        """The target dataset's default options seed the request decode.

        A wire request that omits ``options.l`` must mean "this dataset's
        default l", not the library's stock default — the same resolution
        order every in-process Session call gets.
        """
        if isinstance(payload, dict):
            dataset = payload.get("dataset")
            if isinstance(dataset, str) and dataset in self.deployment:
                return self.deployment.session(dataset).defaults
        return None

    def dispatch(self, endpoint: str, payload: object = None) -> dict[str, Any]:
        """Handle one request by endpoint path; raises on failure.

        (:meth:`dispatch_safe` is the catching variant transports use.)
        A ``deadline_ms`` field arms the request's end-to-end budget for
        the whole dispatch — decode, search, generation, selection.
        """
        deadline = request_deadline(payload)
        if deadline is None:
            return self._dispatch(endpoint, payload)
        with deadline_scope(deadline):
            return self._dispatch(endpoint, payload)

    def _dispatch(self, endpoint: str, payload: object = None) -> dict[str, Any]:
        if endpoint == "/v1/query":
            request = decode_query_request(
                payload, defaults=self._session_defaults(payload)
            )
            return encode_response(self.query(request))
        if endpoint == "/v1/size-l":
            request = decode_size_l_request(
                payload, defaults=self._session_defaults(payload)
            )
            return encode_response(self.size_l(request))
        if endpoint == "/v1/batch":
            request = decode_batch_request(
                payload, defaults=self._session_defaults(payload)
            )
            return encode_response(self.batch(request))
        if endpoint == "/v1/mutate":
            return self.mutate(decode_mutate_request(payload))
        if endpoint == "/v1/watch":
            return self.watch(decode_watch_request(payload))
        if endpoint == "/v1/watch/poll":
            return self.watch_poll(decode_watch_poll_request(payload))
        if endpoint == "/v1/watch/cancel":
            return self.watch_cancel(decode_watch_cancel_request(payload))
        if endpoint == "/v1/datasets":
            return self.datasets()
        if endpoint == "/v1/stats":
            dataset = None
            if payload is not None and isinstance(payload, dict):
                dataset = payload.get("dataset")
            return self.stats(dataset)
        if endpoint == "/v1/admin/invalidate":
            return self.invalidate(decode_invalidate_request(payload))
        if endpoint == "/v1/admin/reload":
            return self.reload(decode_reload_request(payload))
        raise UnknownEndpointError(endpoint)

    def dispatch_safe(
        self, endpoint: str, payload: object = None
    ) -> tuple[int, dict[str, Any]]:
        """:meth:`dispatch` with the error contract applied: always returns
        ``(status, body)`` — the pinned error body on failure — and never
        raises, so one bad request (or one bad reload) can never take the
        serving loop down."""
        try:
            return 200, self.dispatch(endpoint, payload)
        except UnknownEndpointError as exc:
            return 404, encode_error(exc, 404)
        except Exception as exc:  # noqa: BLE001 - the contract: errors become bodies
            status = status_for(exc, endpoint)
            return status, encode_error(exc, status)


class UnknownEndpointError(ReproError):
    """Raised when a request names a path outside :data:`ENDPOINTS`."""

    def __init__(self, endpoint: str) -> None:
        super().__init__(
            f"unknown endpoint {endpoint!r}; available: {list(ENDPOINTS)}"
        )
        self.endpoint = endpoint
