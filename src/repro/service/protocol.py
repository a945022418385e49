"""The versioned wire protocol: typed request/response DTOs and codecs.

Requests and responses are frozen dataclasses with **pure-dict codecs**:
``decode_request`` turns a JSON-shaped dict into a typed request
(rejecting unknown fields, missing fields, and bad types with the pinned
:class:`~repro.errors.RequestValidationError` — the HTTP layer's 400),
and ``encode_response`` flattens a typed response back into JSON types
only.  The codec is the *whole* contract: every transport (HTTP today,
anything else tomorrow) speaks exactly these dicts.

Pagination is cursor-based and **stable**: a :class:`Cursor` pins the
``(rank, table, row_id)`` of the last entry a client saw.  Resuming
re-runs only the cheap keyword search, verifies the match at that rank is
still the same subject (a changed ranking would silently skip or repeat
results otherwise), and computes size-l OSs for the next page only — the
earlier OSs are never recomputed.

The protocol is versioned (:data:`PROTOCOL_VERSION`); responses carry the
version, and a request carrying a different ``protocol_version`` is
rejected up front rather than half-interpreted.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.options import QueryOptions, ResultStats
from repro.errors import RequestValidationError, SummaryError
from repro.reliability.deadline import Deadline

#: Version of the request/response shapes defined in this module.
PROTOCOL_VERSION = 1

#: Hard caps on wire-controlled resource knobs.  In-process callers can
#: configure whatever their process tolerates; a *request* must not be
#: able to send an unbounded batch or size a DP table (O(|OS| * l)
#: cells) to exhaust a worker's memory.
MAX_WIRE_L = 1_000
MAX_BATCH_SUBJECTS = 10_000
MAX_MUTATE_OPERATIONS = 1_000
#: Longest server-side long-poll hold on ``/v1/watch/poll``; clients that
#: want to wait longer re-poll with the same cursor.
MAX_WATCH_TIMEOUT_MS = 30_000


# --------------------------------------------------------------------- #
# Strict field extraction
# --------------------------------------------------------------------- #
def _require_mapping(payload: object, what: str) -> dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise RequestValidationError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return dict(payload)


def _reject_unknown(payload: dict[str, Any], allowed: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise RequestValidationError(
            f"unknown field(s) {unknown} in {what}; allowed: {sorted(allowed)}"
        )


def _require(payload: dict[str, Any], key: str, what: str) -> Any:
    if key not in payload:
        raise RequestValidationError(f"missing required field {key!r} in {what}")
    return payload[key]


def _check_version(payload: dict[str, Any], what: str) -> None:
    version = payload.get("protocol_version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise RequestValidationError(
            f"unsupported protocol_version {version!r} in {what}; "
            f"this server speaks {PROTOCOL_VERSION}"
        )


def _int_field(value: object, key: str, *, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestValidationError(
            f"field {key!r} must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise RequestValidationError(
            f"field {key!r} must be >= {minimum}, got {value}"
        )
    return value


# --------------------------------------------------------------------- #
# Options codec
# --------------------------------------------------------------------- #
_OPTION_FIELDS = (
    "l",
    "algorithm",
    "source",
    "backend",
    "max_results",
    "depth_limit",
)


def decode_options(payload: object, *, defaults: QueryOptions | None = None) -> QueryOptions:
    """A validated :class:`QueryOptions` from its wire dict.

    Fields not present fall back to *defaults* (the hosting Session's);
    unknown fields are rejected.  Library-level validation failures
    (unknown algorithm, ``l < 1``, ...) surface as
    :class:`RequestValidationError` so the transport maps them to 400 —
    the message is the library's own, so nothing is lost.
    """
    base = defaults if defaults is not None else QueryOptions()
    if payload is None:
        return base.normalized()
    payload = _require_mapping(payload, "options")
    _reject_unknown(payload, _OPTION_FIELDS, "options")
    changes: dict[str, Any] = {
        key: payload[key] for key in _OPTION_FIELDS if key in payload
    }
    size = payload.get("l")
    if isinstance(size, int) and size > MAX_WIRE_L:
        raise RequestValidationError(
            f"options.l {size} exceeds the wire limit of {MAX_WIRE_L}"
        )
    try:
        return base.replace(**changes).normalized()
    except SummaryError as exc:
        raise RequestValidationError(f"invalid options: {exc}") from exc


# --------------------------------------------------------------------- #
# Cursor
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Cursor:
    """A stable pagination cursor: the last entry the client received.

    ``rank`` is that entry's zero-based position in the keyword match
    ranking; ``table``/``row_id`` pin the subject so a resumed query can
    *verify* the ranking below the cursor is unchanged instead of
    trusting an offset blindly.
    """

    rank: int
    table: str
    row_id: int

    def encode(self) -> str:
        """The opaque wire token (URL-safe, no padding ambiguity)."""
        raw = json.dumps(
            {"rank": self.rank, "table": self.table, "row_id": self.row_id},
            separators=(",", ":"),
        ).encode("utf-8")
        return base64.urlsafe_b64encode(raw).decode("ascii")

    @classmethod
    def decode(cls, token: object) -> "Cursor":
        if not isinstance(token, str):
            raise RequestValidationError(
                f"cursor must be a string token, got {token!r}"
            )
        try:
            payload = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
        except (binascii.Error, ValueError, UnicodeDecodeError) as exc:
            raise RequestValidationError(f"undecodable cursor {token!r}") from exc
        payload = _require_mapping(payload, "cursor")
        _reject_unknown(payload, ("rank", "table", "row_id"), "cursor")
        rank = _int_field(_require(payload, "rank", "cursor"), "rank", minimum=0)
        table = _require(payload, "table", "cursor")
        if not isinstance(table, str):
            raise RequestValidationError(f"cursor table must be a string, got {table!r}")
        row_id = _int_field(_require(payload, "row_id", "cursor"), "row_id", minimum=0)
        return cls(rank=rank, table=table, row_id=row_id)


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryRequest:
    """One keyword query (optionally one *page* of one).

    ``deadline_ms`` is the request's end-to-end time budget (expiry is
    the pinned 504, :class:`~repro.errors.DeadlineExceededError`);
    ``allow_partial`` opts into degraded cluster answers — results from
    healthy shards plus ``degraded: true`` and the missing-shard list
    instead of a 503.  Both are no-ops on a single-process deployment's
    healthy path, so opted-in requests stay byte-compatible across
    topologies.
    """

    dataset: str
    keywords: tuple[str, ...]
    options: QueryOptions
    cursor: Cursor | None = None
    page_size: int | None = None
    deadline_ms: int | None = None
    allow_partial: bool = False


@dataclass(frozen=True)
class SizeLRequest:
    """The size-l OS of one explicit Data Subject."""

    dataset: str
    table: str
    row_id: int
    options: QueryOptions
    deadline_ms: int | None = None


@dataclass(frozen=True)
class BatchRequest:
    """Batched size-l OSs over explicit subjects, one option set."""

    dataset: str
    subjects: tuple[tuple[str, int], ...]
    options: QueryOptions
    deadline_ms: int | None = None


_QUERY_FIELDS = (
    "protocol_version",
    "dataset",
    "keywords",
    "options",
    "cursor",
    "page_size",
    "deadline_ms",
    "allow_partial",
)
_SIZE_L_FIELDS = (
    "protocol_version", "dataset", "table", "row_id", "options", "deadline_ms",
)
_BATCH_FIELDS = ("protocol_version", "dataset", "subjects", "options", "deadline_ms")


def _decode_deadline_ms(payload: dict[str, Any]) -> int | None:
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is None:
        return None
    return _int_field(deadline_ms, "deadline_ms", minimum=1)


def request_deadline(payload: object) -> Deadline | None:
    """The :class:`~repro.reliability.Deadline` a wire payload asks for.

    Transports call this *before* dispatching so the budget clock starts
    at request admission (decode and validation time count against it).
    An invalid ``deadline_ms`` raises the pinned 400 here — the request
    decoders re-validate identically, but a deadline must be enforceable
    on endpoints (stats, admin) that have no typed decoder.
    """
    if not isinstance(payload, Mapping):
        return None
    deadline_ms = _decode_deadline_ms(dict(payload))
    return None if deadline_ms is None else Deadline(deadline_ms)


def _decode_dataset(payload: dict[str, Any], what: str) -> str:
    dataset = _require(payload, "dataset", what)
    if not isinstance(dataset, str) or not dataset:
        raise RequestValidationError(
            f"field 'dataset' must be a non-empty string, got {dataset!r}"
        )
    return dataset


def decode_query_request(
    payload: object, *, defaults: QueryOptions | None = None
) -> QueryRequest:
    payload = _require_mapping(payload, "query request")
    _check_version(payload, "query request")
    _reject_unknown(payload, _QUERY_FIELDS, "query request")
    dataset = _decode_dataset(payload, "query request")
    keywords = _require(payload, "keywords", "query request")
    if isinstance(keywords, str):
        keywords = (keywords,)
    elif isinstance(keywords, (list, tuple)) and all(
        isinstance(k, str) for k in keywords
    ):
        keywords = tuple(keywords)
    else:
        raise RequestValidationError(
            f"field 'keywords' must be a string or a list of strings, got {keywords!r}"
        )
    if not keywords:
        raise RequestValidationError("field 'keywords' must not be empty")
    cursor = payload.get("cursor")
    page_size = payload.get("page_size")
    if page_size is not None:
        page_size = _int_field(page_size, "page_size", minimum=1)
    allow_partial = payload.get("allow_partial", False)
    if not isinstance(allow_partial, bool):
        raise RequestValidationError(
            f"field 'allow_partial' must be a boolean, got {allow_partial!r}"
        )
    return QueryRequest(
        dataset=dataset,
        keywords=keywords,
        options=decode_options(payload.get("options"), defaults=defaults),
        cursor=None if cursor is None else Cursor.decode(cursor),
        page_size=page_size,
        deadline_ms=_decode_deadline_ms(payload),
        allow_partial=allow_partial,
    )


def decode_size_l_request(
    payload: object, *, defaults: QueryOptions | None = None
) -> SizeLRequest:
    payload = _require_mapping(payload, "size-l request")
    _check_version(payload, "size-l request")
    _reject_unknown(payload, _SIZE_L_FIELDS, "size-l request")
    table = _require(payload, "table", "size-l request")
    if not isinstance(table, str):
        raise RequestValidationError(f"field 'table' must be a string, got {table!r}")
    return SizeLRequest(
        dataset=_decode_dataset(payload, "size-l request"),
        table=table,
        row_id=_int_field(_require(payload, "row_id", "size-l request"), "row_id"),
        options=decode_options(payload.get("options"), defaults=defaults),
        deadline_ms=_decode_deadline_ms(payload),
    )


def decode_batch_request(
    payload: object, *, defaults: QueryOptions | None = None
) -> BatchRequest:
    payload = _require_mapping(payload, "batch request")
    _check_version(payload, "batch request")
    _reject_unknown(payload, _BATCH_FIELDS, "batch request")
    raw_subjects = _require(payload, "subjects", "batch request")
    if not isinstance(raw_subjects, (list, tuple)) or not raw_subjects:
        raise RequestValidationError(
            "field 'subjects' must be a non-empty list of [table, row_id] pairs"
        )
    if len(raw_subjects) > MAX_BATCH_SUBJECTS:
        raise RequestValidationError(
            f"{len(raw_subjects)} subjects exceed the batch limit of "
            f"{MAX_BATCH_SUBJECTS}; split the request"
        )
    subjects: list[tuple[str, int]] = []
    for i, item in enumerate(raw_subjects):
        ok = (
            isinstance(item, (list, tuple))
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], int)
            and not isinstance(item[1], bool)
        )
        if not ok:
            raise RequestValidationError(
                f"subjects[{i}] must be a [table, row_id] pair, got {item!r}"
            )
        subjects.append((item[0], item[1]))
    return BatchRequest(
        dataset=_decode_dataset(payload, "batch request"),
        subjects=tuple(subjects),
        options=decode_options(payload.get("options"), defaults=defaults),
        deadline_ms=_decode_deadline_ms(payload),
    )


# --------------------------------------------------------------------- #
# Mutations and continual queries
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MutateRequest:
    """One transaction: insert/update/delete operations applied atomically.

    Operations are typed :mod:`repro.db.mutation` objects after decode;
    the whole list commits or none of it does.
    """

    dataset: str
    operations: tuple[Any, ...]
    deadline_ms: int | None = None


@dataclass(frozen=True)
class WatchRequest:
    """Register a continual keyword query (top-``k`` change notifications)."""

    dataset: str
    keywords: tuple[str, ...]
    k: int
    watch_id: str | None = None
    deadline_ms: int | None = None


@dataclass(frozen=True)
class WatchPollRequest:
    """Long-poll a watch for notifications newer than ``after_version``."""

    dataset: str
    watch_id: str
    after_version: int = 0
    timeout_ms: int = 0
    deadline_ms: int | None = None


@dataclass(frozen=True)
class WatchCancelRequest:
    dataset: str
    watch_id: str


_MUTATE_FIELDS = ("protocol_version", "dataset", "operations", "deadline_ms")
_WATCH_FIELDS = (
    "protocol_version", "dataset", "keywords", "k", "watch_id", "deadline_ms",
)
_WATCH_POLL_FIELDS = (
    "protocol_version",
    "dataset",
    "watch_id",
    "after_version",
    "timeout_ms",
    "deadline_ms",
)
_WATCH_CANCEL_FIELDS = ("protocol_version", "dataset", "watch_id")


def decode_mutate_request(payload: object) -> MutateRequest:
    from repro.db.mutation import decode_operation

    payload = _require_mapping(payload, "mutate request")
    _check_version(payload, "mutate request")
    _reject_unknown(payload, _MUTATE_FIELDS, "mutate request")
    raw_ops = _require(payload, "operations", "mutate request")
    if not isinstance(raw_ops, (list, tuple)) or not raw_ops:
        raise RequestValidationError(
            "field 'operations' must be a non-empty list of operation objects"
        )
    if len(raw_ops) > MAX_MUTATE_OPERATIONS:
        raise RequestValidationError(
            f"{len(raw_ops)} operations exceed the transaction limit of "
            f"{MAX_MUTATE_OPERATIONS}; split the transaction"
        )
    operations = tuple(
        decode_operation(entry, index=i) for i, entry in enumerate(raw_ops)
    )
    return MutateRequest(
        dataset=_decode_dataset(payload, "mutate request"),
        operations=operations,
        deadline_ms=_decode_deadline_ms(payload),
    )


def _decode_watch_id(payload: dict[str, Any], what: str, *, required: bool) -> str | None:
    watch_id = payload.get("watch_id")
    if watch_id is None:
        if required:
            raise RequestValidationError(f"missing required field 'watch_id' in {what}")
        return None
    if not isinstance(watch_id, str) or not watch_id:
        raise RequestValidationError(
            f"field 'watch_id' must be a non-empty string, got {watch_id!r}"
        )
    return watch_id


def decode_watch_request(payload: object) -> WatchRequest:
    payload = _require_mapping(payload, "watch request")
    _check_version(payload, "watch request")
    _reject_unknown(payload, _WATCH_FIELDS, "watch request")
    keywords = _require(payload, "keywords", "watch request")
    if isinstance(keywords, str):
        keywords = (keywords,)
    elif isinstance(keywords, (list, tuple)) and all(
        isinstance(k, str) for k in keywords
    ):
        keywords = tuple(keywords)
    else:
        raise RequestValidationError(
            f"field 'keywords' must be a string or a list of strings, got {keywords!r}"
        )
    if not keywords:
        raise RequestValidationError("field 'keywords' must not be empty")
    return WatchRequest(
        dataset=_decode_dataset(payload, "watch request"),
        keywords=keywords,
        k=_int_field(_require(payload, "k", "watch request"), "k", minimum=1),
        watch_id=_decode_watch_id(payload, "watch request", required=False),
        deadline_ms=_decode_deadline_ms(payload),
    )


def decode_watch_poll_request(payload: object) -> WatchPollRequest:
    payload = _require_mapping(payload, "watch poll request")
    _check_version(payload, "watch poll request")
    _reject_unknown(payload, _WATCH_POLL_FIELDS, "watch poll request")
    timeout_ms = payload.get("timeout_ms", 0)
    timeout_ms = _int_field(timeout_ms, "timeout_ms", minimum=0)
    if timeout_ms > MAX_WATCH_TIMEOUT_MS:
        raise RequestValidationError(
            f"field 'timeout_ms' must be <= {MAX_WATCH_TIMEOUT_MS}, "
            f"got {timeout_ms}; re-poll to wait longer"
        )
    return WatchPollRequest(
        dataset=_decode_dataset(payload, "watch poll request"),
        watch_id=_decode_watch_id(payload, "watch poll request", required=True),
        after_version=_int_field(
            payload.get("after_version", 0), "after_version", minimum=0
        ),
        timeout_ms=timeout_ms,
        deadline_ms=_decode_deadline_ms(payload),
    )


def decode_watch_cancel_request(payload: object) -> WatchCancelRequest:
    payload = _require_mapping(payload, "watch cancel request")
    _check_version(payload, "watch cancel request")
    _reject_unknown(payload, _WATCH_CANCEL_FIELDS, "watch cancel request")
    return WatchCancelRequest(
        dataset=_decode_dataset(payload, "watch cancel request"),
        watch_id=_decode_watch_id(payload, "watch cancel request", required=True),
    )


_REQUEST_DECODERS = {
    "query": decode_query_request,
    "size_l": decode_size_l_request,
    "batch": decode_batch_request,
}


def decode_request(
    kind: str, payload: object, *, defaults: QueryOptions | None = None
) -> QueryRequest | SizeLRequest | BatchRequest:
    """Decode *payload* as a ``kind`` request ("query" | "size_l" | "batch")."""
    try:
        decoder = _REQUEST_DECODERS[kind]
    except KeyError:
        raise RequestValidationError(
            f"unknown request kind {kind!r}; use one of {sorted(_REQUEST_DECODERS)}"
        ) from None
    return decoder(payload, defaults=defaults)


def encode_request(request: QueryRequest | SizeLRequest | BatchRequest) -> dict[str, Any]:
    """The wire dict of a typed request (the client side of the codec)."""
    body: dict[str, Any] = {
        "protocol_version": PROTOCOL_VERSION,
        "dataset": request.dataset,
        "options": request.options.as_dict(),
    }
    if getattr(request, "deadline_ms", None) is not None:
        body["deadline_ms"] = request.deadline_ms
    if isinstance(request, QueryRequest):
        body["keywords"] = list(request.keywords)
        if request.cursor is not None:
            body["cursor"] = request.cursor.encode()
        if request.page_size is not None:
            body["page_size"] = request.page_size
        if request.allow_partial:
            body["allow_partial"] = True
    elif isinstance(request, SizeLRequest):
        body["table"] = request.table
        body["row_id"] = request.row_id
    elif isinstance(request, BatchRequest):
        body["subjects"] = [[table, row_id] for table, row_id in request.subjects]
    else:
        raise RequestValidationError(
            f"cannot encode {type(request).__name__} as a request"
        )
    return body


# --------------------------------------------------------------------- #
# Responses
# --------------------------------------------------------------------- #
def _encode_stats(stats: ResultStats) -> dict[str, Any]:
    """A result's :class:`ResultStats` as JSON types."""
    encoded: dict[str, Any] = {key: getattr(stats, key) for key in ResultStats.FIELDS}
    encoded["counters"] = {
        key: value
        for key, value in stats.counters.items()
        if isinstance(value, (int, float, str, bool))
    }
    return encoded


@dataclass(frozen=True)
class ResultEntry:
    """One size-l OS in a response: identity, scores, payload, stats."""

    rank: int
    table: str
    row_id: int
    match_importance: float
    importance: float
    l: int  # noqa: E741 - paper notation
    algorithm: str
    selected_uids: tuple[int, ...]
    rendered: str
    stats: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "table": self.table,
            "row_id": self.row_id,
            "match_importance": self.match_importance,
            "importance": self.importance,
            "l": self.l,
            "algorithm": self.algorithm,
            "selected_uids": list(self.selected_uids),
            "rendered": self.rendered,
            "stats": dict(self.stats),
        }


def result_entry(
    rank: int, table: str, row_id: int, match_importance: float, result: Any
) -> ResultEntry:
    """Build a :class:`ResultEntry` from a ``SizeLResult``."""
    return ResultEntry(
        rank=rank,
        table=table,
        row_id=row_id,
        match_importance=float(match_importance),
        importance=float(result.importance),
        l=result.l,
        algorithm=result.algorithm,
        selected_uids=tuple(sorted(result.selected_uids)),
        rendered=result.render(),
        stats=_encode_stats(result.stats),
    )


@dataclass(frozen=True)
class QueryResponse:
    """One page of a keyword query.

    ``next_cursor`` is ``None`` on the last page; ``total_matches`` counts
    the full (post-``max_results``) match list so clients can size
    progress bars without paging to the end.  ``cache`` carries the
    hosting cache's counters (:class:`~repro.core.cache.CacheStats`)
    *after* this request — the serving observability `/v1/stats` also
    exposes.
    """

    dataset: str
    keywords: tuple[str, ...]
    results: tuple[ResultEntry, ...]
    total_matches: int
    next_cursor: Cursor | None
    cache: dict[str, int] = field(default_factory=dict)
    #: The dataset's committed-transaction count when this answer was
    #: computed (0 = as built).  On a sharded topology: the max over the
    #: answering shards.
    dataset_version: int = 0
    #: Degraded-mode marker (cluster only): ``True`` means some shards
    #: were unavailable and their entries are missing from ``results``.
    degraded: bool = False
    missing_shards: tuple[int, ...] = ()


@dataclass(frozen=True)
class SizeLResponse:
    dataset: str
    result: ResultEntry
    cache: dict[str, int] = field(default_factory=dict)
    dataset_version: int = 0


@dataclass(frozen=True)
class BatchResponse:
    dataset: str
    results: tuple[ResultEntry, ...]
    cache: dict[str, int] = field(default_factory=dict)
    dataset_version: int = 0


def encode_response(
    response: QueryResponse | SizeLResponse | BatchResponse,
) -> dict[str, Any]:
    """The wire dict of a typed response (always carries the version)."""
    body: dict[str, Any] = {
        "protocol_version": PROTOCOL_VERSION,
        "dataset": response.dataset,
        "cache": dict(response.cache),
        "dataset_version": response.dataset_version,
    }
    if isinstance(response, QueryResponse):
        body["keywords"] = list(response.keywords)
        body["results"] = [entry.as_dict() for entry in response.results]
        body["total_matches"] = response.total_matches
        body["next_cursor"] = (
            None if response.next_cursor is None else response.next_cursor.encode()
        )
        # only degraded answers carry the marker: healthy bodies must stay
        # byte-identical to pre-reliability servers (and across topologies)
        if response.degraded:
            body["degraded"] = True
            body["missing_shards"] = list(response.missing_shards)
    elif isinstance(response, SizeLResponse):
        body["result"] = response.result.as_dict()
    elif isinstance(response, BatchResponse):
        body["results"] = [entry.as_dict() for entry in response.results]
    else:
        raise RequestValidationError(
            f"cannot encode {type(response).__name__} as a response"
        )
    return body


def decode_entry(payload: object) -> ResultEntry:
    """A typed :class:`ResultEntry` from its wire dict (``as_dict``'s inverse)."""
    payload = _require_mapping(payload, "result entry")
    entry_fields = (
        "rank",
        "table",
        "row_id",
        "match_importance",
        "importance",
        "l",
        "algorithm",
        "selected_uids",
        "rendered",
        "stats",
    )
    _reject_unknown(payload, entry_fields, "result entry")
    for key in entry_fields:
        _require(payload, key, "result entry")
    return ResultEntry(
        rank=payload["rank"],
        table=payload["table"],
        row_id=payload["row_id"],
        match_importance=payload["match_importance"],
        importance=payload["importance"],
        l=payload["l"],
        algorithm=payload["algorithm"],
        selected_uids=tuple(payload["selected_uids"]),
        rendered=payload["rendered"],
        stats=dict(payload["stats"]),
    )


def decode_query_response(payload: object) -> QueryResponse:
    """A typed :class:`QueryResponse` from its wire dict (the client side)."""
    payload = _require_mapping(payload, "query response")
    _check_version(payload, "query response")
    _reject_unknown(
        payload,
        (
            "protocol_version",
            "dataset",
            "keywords",
            "results",
            "total_matches",
            "next_cursor",
            "cache",
            "dataset_version",
            "degraded",
            "missing_shards",
        ),
        "query response",
    )
    cursor = payload.get("next_cursor")
    return QueryResponse(
        dataset=_require(payload, "dataset", "query response"),
        keywords=tuple(_require(payload, "keywords", "query response")),
        results=tuple(
            decode_entry(entry)
            for entry in _require(payload, "results", "query response")
        ),
        total_matches=_require(payload, "total_matches", "query response"),
        next_cursor=None if cursor is None else Cursor.decode(cursor),
        cache=dict(payload.get("cache", {})),
        dataset_version=int(payload.get("dataset_version", 0)),
        degraded=bool(payload.get("degraded", False)),
        missing_shards=tuple(payload.get("missing_shards", ())),
    )


# --------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------- #
def encode_error(exc: BaseException, status: int) -> dict[str, Any]:
    """The pinned JSON error body every transport returns.

    ``type`` is the exception class name (stable across the typed
    hierarchy — clients can switch on it), ``status`` repeats the HTTP
    status so non-HTTP transports carry the same information.
    """
    return {
        "protocol_version": PROTOCOL_VERSION,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "status": status,
        },
    }
