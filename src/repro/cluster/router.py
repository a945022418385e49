"""The router: one dispatcher-shaped front end over many shard workers.

:class:`ClusterRouter` implements the same ``dispatch_safe(endpoint,
payload) -> (status, body)`` surface as
:class:`~repro.service.dispatch.ServiceDispatcher`, which is the whole
trick: the HTTP front end plugs into either without knowing which it got,
and every pinned status code and error body of the single-process service
survives sharding because the *workers* still run the real dispatcher.

Routing policy (the subject key is ``(dataset, table, row_id)`` on the
:class:`~repro.cluster.hashring.HashRing`):

* ``/v1/size-l`` — forwarded to the subject's owning shard (malformed
  payloads go to shard 0, whose dispatcher produces the pinned 400);
* ``/v1/batch`` — the owner scatter: subjects grouped by owning shard,
  one ``/v1/batch`` per owner, entries re-ranked to the caller's subject
  order, per-worker cache counters merged;
* ``/v1/query`` — one cheap ``cluster/matches`` call computes the ranked
  match list (and runs the full request validation), the router pages
  through :func:`~repro.service.dispatch.page_window`, the single-process
  dispatcher's own cursor check and page window, then runs the page
  through the same owner scatter — so cursors minted by a 1-shard server
  page correctly on an 8-shard one and vice versa;
* ``/v1/admin/invalidate`` — row-scoped requests go only to the owning
  shard (the only cache that can hold that subject); broader scopes
  broadcast;
* ``/v1/admin/reload`` — broadcast (every worker re-opens the snapshot);
* ``/v1/stats`` — scattered, and each dataset's per-shard entries merged
  by one rule (:func:`_merge_stats`: cache counters summed through
  :meth:`~repro.core.cache.CacheStats.merge`, ``dataset_version`` and
  ``watch_active`` the max over shards), plus a ``cluster`` section;
  ``/v1/metrics`` renders this same answer;
* ``/v1/datasets`` — any healthy shard (they are replicas of the recipe).

The ``/v1/query`` and ``/v1/batch`` bodies are typed responses encoded by
:func:`~repro.service.protocol.encode_response`, exactly as on one
process.

Failure budget: every request gets one deadline — the router's flat
``request_timeout``, tightened to the client's ``deadline_ms`` when the
request carries one.  A shard that is down is retried until that budget
runs out (worker restarts are invisible to patient clients), paced by a
**per-shard circuit breaker**: after ``breaker_threshold`` consecutive
transport failures the breaker opens and retries stop dialing the dead
socket, waiting on the clock instead; every ``breaker_reset`` seconds one
half-open probe tests whether the worker is back.  Past the budget the
router answers the pinned 503 body — or the pinned **504**
(:class:`~repro.errors.DeadlineExceededError`, byte-identical to the
single-process body) when the client's own ``deadline_ms`` is what
expired.  Forwarded sub-requests carry the *remaining* budget, so a
worker cancels exactly when its router would have given up on it.

Degraded mode: a query with ``allow_partial: true`` answers from the
healthy shards when some owners are unavailable — ``degraded: true``
plus the missing-shard list instead of a 503 — bounded per missing shard
by ``partial_patience`` (a dead or hung shard must not eat the whole
budget): every attempt's timeout is capped at the patience left, so a
shard slower than ``partial_patience`` counts as missing.  ``/v1/stats``
honors the same flag with a partial merge.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Iterable

from repro.cluster.hashring import HashRing
from repro.cluster.supervisor import Supervisor
from repro.cluster.worker import MATCHES_ENDPOINT
from repro.core.cache import CacheStats
from repro.errors import DeadlineExceededError, ShardUnavailableError
from repro.reliability.breaker import CLOSED, CircuitBreaker
from repro.search.keyword import DataSubjectMatch
from repro.service.dispatch import (
    ENDPOINTS,
    UnknownEndpointError,
    page_window,
    status_for,
)
from repro.service.middleware.context import current_context
from repro.service.protocol import (
    MAX_BATCH_SUBJECTS,
    PROTOCOL_VERSION,
    BatchResponse,
    Cursor,
    QueryResponse,
    ResultEntry,
    decode_entry,
    encode_error,
    encode_response,
)

#: Keys a batch payload may carry; anything else is forwarded whole to a
#: worker so its decoder produces the pinned unknown-field 400.
_BATCH_KEYS = {"protocol_version", "dataset", "subjects", "options", "deadline_ms"}

#: One shard's ``(status, body)`` answer.
_Reply = tuple[int, dict[str, Any]]


def _is_row_id(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _stable_key(value: object) -> object:
    """A hash-ring-safe stand-in for a mutation's primary key.

    Scalars route by value; anything else (an insert's values dict, a
    malformed payload) pins to a fixed key so the owner choice is at
    least deterministic.
    """
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        return value
    return 0


def _valid_subject(item: object) -> bool:
    return (
        isinstance(item, (list, tuple))
        and len(item) == 2
        and isinstance(item[0], str)
        and _is_row_id(item[1])
    )


class _Relay(Exception):
    """A shard's non-200 answer, relayed to the client verbatim.

    Raised on the request's own thread once a scatter is gathered, so an
    endpoint stops at the first failing shard in shard order;
    :meth:`ClusterRouter.dispatch_safe` returns the carried reply.
    """

    def __init__(self, reply: _Reply) -> None:
        super().__init__(reply[0])
        self.reply = reply


def _relay_failures(replies: "Iterable[_Reply | None]") -> None:
    """Relay the first non-200 reply (``None`` is a tolerated missing shard)."""
    for reply in replies:
        if reply is not None and reply[0] != 200:
            raise _Relay(reply)


def _merge_stats(entries: "list[dict[str, Any]]") -> dict[str, Any]:
    """One dataset's ``/v1/stats`` entries from several shards, as one.

    ``cache`` counters sum through :meth:`CacheStats.merge`;
    ``dataset_version`` and ``watch_active`` take the max, as ``/v1/query``
    bodies do (the front of a mutation broadcast; watches are replicated,
    so healthy shards agree); every other field is the first shard's.
    Only shards that built the dataset count: an unbuilt shard's
    metadata answers only when no shard has built it.
    """
    built = [entry for entry in entries if isinstance(entry.get("cache"), dict)]
    if not built:
        return entries[0]
    merged = dict(built[0])
    merged["cache"] = CacheStats.merge(*(entry["cache"] for entry in built)).as_dict()
    for key in ("dataset_version", "watch_active"):
        merged[key] = max(int(entry.get(key, 0)) for entry in built)
    return merged


class _Budget:
    """One request's routing deadline: flat timeout or client budget.

    ``budget_ms`` is the client's ``deadline_ms`` when that is what set
    the deadline — its presence decides which pinned error exhaustion
    raises (504 :class:`DeadlineExceededError`) versus the router's own
    flat timeout (503 :class:`ShardUnavailableError`).

    ``ctx`` is the edge request's wire identity (request id, principal),
    captured once at ``dispatch_safe`` — scatter calls run on pool
    threads, where the edge's thread-local context is invisible, so the
    budget object is what carries it to every sub-request.
    """

    __slots__ = ("timeout", "budget_ms", "expires_at", "ctx")

    def __init__(self, timeout: float, budget_ms: "int | None" = None) -> None:
        self.timeout = timeout
        self.budget_ms = budget_ms
        self.expires_at = time.monotonic() + timeout
        self.ctx: "dict[str, Any] | None" = None

    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> int:
        """The forwardable remainder (workers must see a valid budget)."""
        return max(int(self.remaining() * 1000), 1)

    def exhausted_error(self, shard: int) -> Exception:
        if self.budget_ms is not None:
            return DeadlineExceededError(self.budget_ms)
        return ShardUnavailableError(
            shard, f"request deadline ({self.timeout}s) exhausted"
        )


def _attempt_timeout(budget: _Budget, start: float, patience: "float | None") -> float:
    """How long one shard attempt may take: what remains of *budget*,
    capped in degraded mode by what remains of *patience* since *start*,
    so a hung shard costs ``partial_patience``, not the whole budget."""
    timeout = budget.remaining()
    if patience is not None:
        timeout = min(timeout, patience - (time.monotonic() - start))
    return timeout


class ClusterRouter:
    """Scatter/gather dispatch over a :class:`Supervisor`'s workers."""

    def __init__(
        self,
        supervisor: Supervisor,
        *,
        replicas: int | None = None,
        request_timeout: float = 30.0,
        retry_interval: float = 0.05,
        breaker_threshold: int = 5,
        breaker_reset: float = 0.5,
        partial_patience: float = 1.0,
    ) -> None:
        self.supervisor = supervisor
        ring_args = {} if replicas is None else {"replicas": replicas}
        self.ring = HashRing(supervisor.shard_count, **ring_args)
        self.request_timeout = request_timeout
        self.retry_interval = retry_interval
        self.partial_patience = partial_patience
        self._breakers = [
            CircuitBreaker(
                failure_threshold=breaker_threshold, reset_timeout=breaker_reset
            )
            for _ in range(supervisor.shard_count)
        ]
        self._rotation = itertools.count()
        self._pool = ThreadPoolExecutor(
            max_workers=max(8, supervisor.shard_count * 2),
            thread_name_prefix="repro-router",
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._inflight_zero = threading.Condition(self._inflight_lock)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _budget(self, payload: Any) -> _Budget:
        """The request's deadline: ``min(request_timeout, deadline_ms)``.

        An *invalid* ``deadline_ms`` (wrong type, < 1) is deliberately
        ignored here — the payload is forwarded untouched so a worker's
        decoder produces the pinned 400, exactly as single-process would.
        """
        if isinstance(payload, dict):
            raw = payload.get("deadline_ms")
            if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
                budget = raw / 1000.0
                if budget <= self.request_timeout:
                    return _Budget(budget, raw)
        return _Budget(self.request_timeout)

    def _forwarded(self, payload: Any, budget: _Budget) -> Any:
        """*payload* with ``deadline_ms`` rewritten to the budget's
        remainder — workers must enforce what is *left*, not what the
        client originally asked this router for."""
        if (
            budget.budget_ms is None
            or not isinstance(payload, dict)
            or "deadline_ms" not in payload
        ):
            return payload
        sub = dict(payload)
        sub["deadline_ms"] = budget.remaining_ms()
        return sub

    def _call(
        self,
        shard: int,
        endpoint: str,
        payload: Any,
        budget: _Budget,
        *,
        patience: "float | None" = None,
    ) -> tuple[int, dict[str, Any]]:
        """One shard, retried across restarts until the budget runs out.

        The shard's circuit breaker paces the loop: while open, retries
        wait on the clock instead of dialing the dead socket, and one
        half-open probe per reset window tests for recovery.  *patience*
        (degraded mode) bounds how long this call waits for the shard,
        a hung one included, independent of the overall budget.
        """
        breaker = self._breakers[shard]
        start = time.monotonic()
        last: ShardUnavailableError | None = None
        while True:
            timeout = _attempt_timeout(budget, start, patience)
            if timeout <= 0:
                if patience is None or budget.remaining() <= 0:
                    raise budget.exhausted_error(shard)
                raise last if last is not None else ShardUnavailableError(
                    shard, f"no healthy worker within {patience}s (partial mode)"
                )
            if breaker.allow():
                try:
                    reply = self.supervisor.request(
                        shard,
                        endpoint,
                        self._forwarded(payload, budget),
                        timeout=timeout,
                        ctx=budget.ctx,
                    )
                except ShardUnavailableError as exc:
                    breaker.record_failure()
                    last = exc
                else:
                    breaker.record_success()
                    return reply
            # pace the next attempt; the sleep is clamped to what remains
            # of the budget (and patience) so the call fails *at* its
            # deadline, never up to retry_interval past it
            sleep = min(self.retry_interval, _attempt_timeout(budget, start, patience))
            if sleep > 0:
                time.sleep(sleep)

    def _call_any(
        self,
        endpoint: str,
        payload: Any,
        budget: _Budget,
        *,
        patience: "float | None" = None,
    ) -> tuple[int, dict[str, Any]]:
        """Any healthy shard (rotated for balance), same budget rules.

        With *patience* (degraded mode) each shard gets that long, as in
        :meth:`_call`: a shard that used its patience up is skipped, and
        the call fails once every shard has.
        """
        count = self.supervisor.shard_count
        last: ShardUnavailableError | None = None
        # when each shard was first tried: its own patience clock
        tried_since: dict[int, float] = {}
        while True:
            first = next(self._rotation)
            for offset in range(count):
                shard = (first + offset) % count
                since = tried_since.setdefault(shard, time.monotonic())
                timeout = _attempt_timeout(budget, since, patience)
                if patience is not None and timeout <= 0:
                    continue
                breaker = self._breakers[shard]
                if not breaker.allow():
                    continue
                try:
                    reply = self.supervisor.request(
                        shard,
                        endpoint,
                        self._forwarded(payload, budget),
                        timeout=max(timeout, 1e-3),
                        ctx=budget.ctx,
                    )
                except ShardUnavailableError as exc:
                    breaker.record_failure()
                    last = exc
                else:
                    breaker.record_success()
                    return reply
            remaining = budget.remaining()
            if remaining <= 0:
                if budget.budget_ms is not None or last is None:
                    raise budget.exhausted_error(first % count)
                raise last
            if patience is not None:
                remaining = max(
                    _attempt_timeout(budget, since, patience)
                    for since in tried_since.values()
                )
                if remaining <= 0:
                    raise last if last is not None else ShardUnavailableError(
                        first % count,
                        f"no healthy worker within {patience}s (partial mode)",
                    )
            time.sleep(min(self.retry_interval, remaining))

    def _fan_out(
        self,
        endpoint: str,
        payloads: "dict[int, Any]",
        budget: _Budget,
        *,
        partial: bool = False,
        tolerate: bool = False,
    ) -> "dict[int, _Reply | None]":
        """``payloads[shard]`` to each shard concurrently, replies in shard order.

        The first exception propagates.  Degraded mode (*partial*) gives an
        unavailable shard ``partial_patience`` instead of the whole budget
        (a dead shard must not eat it) and then answers ``None`` for it;
        *tolerate* answers ``None`` for a shard still unavailable when the
        budget runs out.
        """
        patience = self.partial_patience if partial else None

        def call(shard: int) -> "_Reply | None":
            try:
                return self._call(
                    shard, endpoint, payloads[shard], budget, patience=patience
                )
            except ShardUnavailableError:
                if partial or tolerate:
                    return None
                raise

        shards = sorted(payloads)
        if len(shards) == 1:
            return {shards[0]: call(shards[0])}
        futures = [self._pool.submit(call, shard) for shard in shards]
        return {shard: future.result() for shard, future in zip(shards, futures)}

    def _everywhere(self, payload: Any) -> "dict[int, Any]":
        """*payload* for every shard (a broadcast's ``_fan_out`` argument)."""
        return dict.fromkeys(range(self.supervisor.shard_count), payload)

    def _owner_scatter(
        self,
        dataset: str,
        subjects: "list[tuple[str, int]]",
        payload: dict[str, Any],
        budget: _Budget,
        *,
        first_rank: int = 0,
        allow_partial: bool = False,
    ) -> "tuple[list[ResultEntry | None], dict[str, int], int, list[int]]":
        """The size-l OSs of *subjects*, each computed on its owning shard.

        Subjects are grouped by ring owner and each owner gets one
        ``/v1/batch`` carrying *payload*'s protocol version, options and
        deadline.  Returns the entries in subject order, ranked from
        *first_rank* (``None`` for a missing shard's subjects), the merged
        cache counters, the highest ``dataset_version`` among the answers,
        and the missing shards.  With *allow_partial* a shard that stays
        unavailable or answers 503 is missing; any other non-200 answer is
        relayed.
        """
        groups: dict[int, list[int]] = {}
        for index, (table, row_id) in enumerate(subjects):
            shard = self.ring.owner(dataset, table, row_id)
            groups.setdefault(shard, []).append(index)
        shared = {
            key: payload[key]
            for key in ("protocol_version", "options", "deadline_ms")
            if key in payload
        }
        payloads = {
            shard: {
                **shared,
                "dataset": dataset,
                "subjects": [list(subjects[index]) for index in indices],
            }
            for shard, indices in groups.items()
        }
        replies = self._fan_out("/v1/batch", payloads, budget, partial=allow_partial)
        entries: list[ResultEntry | None] = [None] * len(subjects)
        caches: list[dict[str, int]] = []
        missing: list[int] = []
        version = 0
        for shard, reply in replies.items():
            if reply is None or (allow_partial and reply[0] == 503):
                missing.append(shard)
                continue
            if reply[0] != 200:
                raise _Relay(reply)
            body = reply[1]
            for index, entry in zip(groups[shard], body["results"]):
                entries[index] = decode_entry({**entry, "rank": first_rank + index})
            caches.append(body.get("cache", {}))
            version = max(version, int(body.get("dataset_version", 0)))
        return entries, CacheStats.merge(*caches).as_dict(), version, missing

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _size_l(self, payload: Any, budget: _Budget) -> tuple[int, dict[str, Any]]:
        shard = 0
        if (
            isinstance(payload, dict)
            and isinstance(payload.get("dataset"), str)
            and isinstance(payload.get("table"), str)
            and _is_row_id(payload.get("row_id"))
        ):
            shard = self.ring.owner(
                payload["dataset"], payload["table"], payload["row_id"]
            )
        return self._call(shard, "/v1/size-l", payload, budget)

    def _batch(self, payload: Any, budget: _Budget) -> tuple[int, dict[str, Any]]:
        splittable = (
            isinstance(payload, dict)
            and set(payload) <= _BATCH_KEYS
            and isinstance(payload.get("dataset"), str)
            and isinstance(payload.get("subjects"), (list, tuple))
            and 0 < len(payload["subjects"]) <= MAX_BATCH_SUBJECTS
            and all(_valid_subject(item) for item in payload["subjects"])
        )
        if not splittable:
            # let a real dispatcher produce the pinned validation error
            return self._call(0, "/v1/batch", payload, budget)
        entries, cache, version, _missing = self._owner_scatter(
            payload["dataset"],
            [(table, row_id) for table, row_id in payload["subjects"]],
            payload,
            budget,
        )
        return 200, encode_response(
            BatchResponse(
                dataset=payload["dataset"],
                results=tuple(entries),
                cache=cache,
                dataset_version=version,
            )
        )

    def _query(self, payload: Any, budget: _Budget) -> tuple[int, dict[str, Any]]:
        """The split keyword query: one match call, then the owner scatter."""
        allow_partial = isinstance(payload, dict) and payload.get("allow_partial") is True
        status, found = self._call_any(
            MATCHES_ENDPOINT,
            payload,
            budget,
            patience=self.partial_patience if allow_partial else None,
        )
        if status != 200:
            return status, found
        # a 200 means the worker decoded *payload* as a valid query request
        matches = [DataSubjectMatch(**match) for match in found["matches"]]
        cursor = payload.get("cursor")
        start, stop, next_cursor = page_window(
            matches,
            None if cursor is None else Cursor.decode(cursor),
            payload.get("page_size"),
        )
        page = matches[start:stop]
        entries, cache, version, missing = self._owner_scatter(
            found["dataset"],
            [(match.table, match.row_id) for match in page],
            payload,
            budget,
            first_rank=start,
            allow_partial=allow_partial,
        )
        return 200, encode_response(
            QueryResponse(
                dataset=found["dataset"],
                keywords=tuple(found["keywords"]),
                results=tuple(
                    replace(entry, match_importance=match.importance)
                    for match, entry in zip(page, entries)
                    if entry is not None
                ),
                total_matches=len(matches),
                next_cursor=next_cursor,
                cache=cache,
                dataset_version=max(int(found.get("dataset_version", 0)), version),
                degraded=bool(missing),
                missing_shards=tuple(missing),
            )
        )

    def _stats(self, payload: Any, budget: _Budget) -> tuple[int, dict[str, Any]]:
        allow_partial = isinstance(payload, dict) and payload.get("allow_partial") is True
        replies = self._fan_out(
            "/v1/stats", self._everywhere(payload), budget, partial=allow_partial
        )
        missing = [shard for shard, reply in replies.items() if reply is None]
        if len(missing) == len(replies):
            raise ShardUnavailableError(
                missing[0], "no shard could answer the stats broadcast"
            )
        _relay_failures(replies.values())
        bodies = [reply[1] for reply in replies.values() if reply is not None]
        if isinstance(payload, dict) and payload.get("dataset") is not None:
            merged = _merge_stats(bodies)
        else:
            merged = {
                name: _merge_stats([body[name] for body in bodies if name in body])
                for name in bodies[0]
            }
        merged["cluster"] = {
            "shards": self.supervisor.shard_count,
            "ready": self.supervisor.ready_count(),
        }
        if missing:
            merged["degraded"] = True
            merged["missing_shards"] = sorted(missing)
        return 200, merged

    def _mutate(self, payload: Any, budget: _Budget) -> tuple[int, dict[str, Any]]:
        """Owner-first transactional write, then broadcast to the replicas.

        Every shard holds a full replica of the dataset, so a committed
        transaction must reach all of them.  The shard owning the first
        operation's ``(dataset, table, pk)`` commits first and its body is
        the response — the client observes its own write on that shard
        immediately (read-your-writes per shard).  A failure on the owner
        aborts the whole request before any replica has seen it; a failure
        mid-broadcast returns that shard's error (replicas may then lag
        until the client retries — mutations never degrade silently).
        """
        owner = 0
        if isinstance(payload, dict) and isinstance(payload.get("dataset"), str):
            operations = payload.get("operations")
            if isinstance(operations, (list, tuple)) and operations:
                first = operations[0]
                if isinstance(first, dict) and isinstance(first.get("table"), str):
                    key = first.get("pk", first.get("values"))
                    owner = self.ring.owner(
                        payload["dataset"], first["table"], _stable_key(key)
                    )
        status, body = self._call(owner, "/v1/mutate", payload, budget)
        if status != 200:
            return status, body
        replicas = self._everywhere(payload)
        del replicas[owner]
        _relay_failures(self._fan_out("/v1/mutate", replicas, budget).values())
        return status, body

    def _watch_register(
        self, payload: Any, budget: _Budget
    ) -> tuple[int, dict[str, Any]]:
        """Broadcast a watch registration under one router-minted id.

        Every shard evaluates every commit it applies, so registering the
        same watch id everywhere makes notifications available wherever a
        later poll lands; the first shard's body (baseline top-k) answers.
        """
        if isinstance(payload, dict) and "watch_id" not in payload:
            payload = dict(payload)
            payload["watch_id"] = uuid.uuid4().hex[:16]
        return self._broadcast("/v1/watch", payload, budget)

    def _watch_poll(self, payload: Any, budget: _Budget) -> tuple[int, dict[str, Any]]:
        """Fan a poll out to every shard and merge by dataset version.

        Replicas apply the same commits, so their notification streams
        agree version-for-version; the merge dedupes on the version key
        and a shard that lost its registry (restart) is simply outvoted by
        the shards that still hold the watch.  Only when *no* shard knows
        the watch does the 404 propagate.
        """
        replies = self._fan_out(
            "/v1/watch/poll", self._everywhere(payload), budget, tolerate=True
        )
        merged: dict[int, dict[str, Any]] = {}
        version = 0
        template: "dict[str, Any] | None" = None
        failure: "_Reply | None" = None
        for reply in replies.values():
            if reply is None:
                continue
            status, body = reply
            if status != 200:
                if failure is None:
                    failure = (status, body)
                continue
            template = template if template is not None else body
            version = max(version, int(body.get("dataset_version", 0)))
            for notification in body.get("notifications", ()):
                merged.setdefault(
                    int(notification["dataset_version"]), notification
                )
        if template is None:
            if failure is not None:
                return failure
            raise ShardUnavailableError(
                0, "no shard could answer the watch poll"
            )
        return 200, {
            "protocol_version": PROTOCOL_VERSION,
            "dataset": template["dataset"],
            "watch_id": template["watch_id"],
            "dataset_version": version,
            "notifications": [merged[key] for key in sorted(merged)],
        }

    def _watch_cancel(
        self, payload: Any, budget: _Budget
    ) -> tuple[int, dict[str, Any]]:
        """Broadcast a cancel; ``cancelled`` is true if any shard held it."""
        replies = self._fan_out("/v1/watch/cancel", self._everywhere(payload), budget)
        _relay_failures(replies.values())
        bodies = [body for _status, body in replies.values()]
        merged = dict(bodies[0])
        merged["cancelled"] = any(body.get("cancelled") for body in bodies)
        return 200, merged

    def _invalidate(self, payload: Any, budget: _Budget) -> tuple[int, dict[str, Any]]:
        row_scoped = (
            isinstance(payload, dict)
            and set(payload) <= {"protocol_version", "dataset", "table", "row_id"}
            and isinstance(payload.get("dataset"), str)
            and isinstance(payload.get("table"), str)
            and _is_row_id(payload.get("row_id"))
        )
        if row_scoped:
            shard = self.ring.owner(
                payload["dataset"], payload["table"], payload["row_id"]
            )
            return self._call(shard, "/v1/admin/invalidate", payload, budget)
        return self._broadcast("/v1/admin/invalidate", payload, budget)

    def _broadcast(
        self, endpoint: str, payload: Any, budget: _Budget
    ) -> tuple[int, dict[str, Any]]:
        """Every shard must apply the mutation; first failure wins.

        Mutations never degrade: a partial invalidate/reload would leave
        shards serving different generations of the same dataset.
        """
        replies = self._fan_out(endpoint, self._everywhere(payload), budget)
        _relay_failures(replies.values())
        return replies[0]

    # ------------------------------------------------------------------ #
    # The dispatcher-shaped surface
    # ------------------------------------------------------------------ #
    def dispatch_safe(
        self, endpoint: str, payload: object = None
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; never raises (same contract as the
        single-process ``ServiceDispatcher.dispatch_safe``)."""
        with self._inflight_lock:
            self._inflight += 1
        try:
            budget = self._budget(payload)
            # capture the edge context here, on the edge thread — scatter
            # work runs on pool threads where the thread-local is unset
            edge_ctx = current_context()
            if edge_ctx is not None:
                budget.ctx = edge_ctx.wire_identity()
            if endpoint == "/v1/query":
                return self._query(payload, budget)
            if endpoint == "/v1/size-l":
                return self._size_l(payload, budget)
            if endpoint == "/v1/batch":
                return self._batch(payload, budget)
            if endpoint == "/v1/datasets":
                return self._call_any("/v1/datasets", payload, budget)
            if endpoint == "/v1/stats":
                return self._stats(payload, budget)
            if endpoint == "/v1/admin/invalidate":
                return self._invalidate(payload, budget)
            if endpoint == "/v1/admin/reload":
                return self._broadcast("/v1/admin/reload", payload, budget)
            if endpoint == "/v1/mutate":
                return self._mutate(payload, budget)
            if endpoint == "/v1/watch":
                return self._watch_register(payload, budget)
            if endpoint == "/v1/watch/poll":
                return self._watch_poll(payload, budget)
            if endpoint == "/v1/watch/cancel":
                return self._watch_cancel(payload, budget)
            exc = UnknownEndpointError(endpoint)
            return 404, encode_error(exc, 404)
        except _Relay as relay:
            return relay.reply
        except ShardUnavailableError as exc:
            return 503, encode_error(exc, 503)
        except Exception as exc:  # noqa: BLE001 - the dispatch_safe contract
            status = status_for(exc, endpoint)
            return status, encode_error(exc, status)
        finally:
            with self._inflight_zero:
                self._inflight -= 1
                if self._inflight == 0:
                    self._inflight_zero.notify_all()

    def healthz(self) -> dict[str, Any]:
        """Cluster liveness: the router is up; per-shard detail inside.

        Each shard reports a ``state``: ``ok`` (ready, breaker closed),
        ``breaker_open`` (ready per the supervisor but the router's
        breaker is holding traffic after consecutive transport failures),
        or ``restarting`` (supervisor is respawning it).
        """
        shards = self.supervisor.describe()
        for info in shards:
            if not info["ready"]:
                info["state"] = "restarting"
            elif self._breakers[info["shard"]].state != CLOSED:
                info["state"] = "breaker_open"
            else:
                info["state"] = "ok"
        return {
            "ok": all(info["ready"] for info in shards),
            "role": "router",
            "shards": shards,
            "endpoints": list(ENDPOINTS),
        }

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for in-flight requests to finish (graceful-shutdown half)."""
        deadline = time.monotonic() + timeout
        with self._inflight_zero:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_zero.wait(remaining)
        return True

    def close(self) -> None:
        self._pool.shutdown(wait=False)
