"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Subsystems raise the most specific subclass
available; error messages always name the offending object (table, column,
relation, node) to keep failures debuggable without a stack dive.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """Raised for invalid schema definitions (duplicate tables, bad columns)."""


class UnknownTableError(SchemaError):
    """Raised when a table name cannot be resolved in the catalog."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(SchemaError):
    """Raised when a column name cannot be resolved in a table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column {column!r} in table {table!r}")
        self.table = table
        self.column = column


class IntegrityError(ReproError):
    """Raised on constraint violations (duplicate PK, dangling FK, type)."""


class TypeMismatchError(IntegrityError):
    """Raised when a value does not match its column's declared type."""


class GraphError(ReproError):
    """Raised for invalid schema-graph or G_DS operations."""


class RankingError(ReproError):
    """Raised for invalid authority-transfer graphs or failed iterations."""


class ConvergenceError(RankingError):
    """Raised when power iteration fails to converge within max iterations."""

    def __init__(self, iterations: int, residual: float, tol: float) -> None:
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})"
        )
        self.iterations = iterations
        self.residual = residual
        self.tol = tol


class SummaryError(ReproError):
    """Raised for invalid object-summary operations (bad l, missing root)."""


class InvalidSizeError(SummaryError):
    """Raised when a requested summary size l is not a positive integer."""

    def __init__(self, l: object) -> None:  # noqa: E741 - paper notation
        super().__init__(f"summary size l must be a positive integer, got {l!r}")
        self.l = l


class RegistryError(ReproError):
    """Raised for invalid registry operations (duplicate or bad names)."""


class SearchError(ReproError):
    """Raised for malformed keyword queries."""


class DatasetError(ReproError):
    """Raised when a synthetic dataset generator is misconfigured."""


class PersistError(ReproError):
    """Raised for invalid snapshot-store operations (see :mod:`repro.persist`)."""


class SnapshotFormatError(PersistError):
    """Raised when a snapshot directory is corrupt, unreadable, or from an
    unsupported format version (bad manifest, checksum failure, missing
    arena files)."""


class SnapshotMismatchError(PersistError):
    """Raised when a structurally valid snapshot does not belong to the
    attaching engine (dataset/schema fingerprint or importance-store digest
    differs) — serving from it could silently return wrong trees."""


class BackendIOError(ReproError):
    """Raised when a backend IO operation fails transiently (a flaky disk,
    a dropped DBMS connection, an injected fault).  The request was not
    completed but left no partial state behind; transports map this to
    503 — clients may safely retry."""


class StorageError(ReproError):
    """Raised for invalid storage-tier operations (see :mod:`repro.storage`):
    missing or corrupt SQLite files, unsupported format versions, malformed
    DBLP XML records.  The CLI maps this — like every :class:`ReproError` —
    to the pinned usage-error exit code 2."""


class ServiceError(ReproError):
    """Raised for invalid service-layer operations (see :mod:`repro.service`)."""


class DeadlineExceededError(ServiceError):
    """Raised when a request's end-to-end time budget (``deadline_ms``)
    expires before the work completes.  Transports map this to 504.

    The message is deliberately a constant: the same budget blown on a
    single-process server, inside a shard worker, or in the cluster
    router must produce byte-identical error bodies, so nothing
    process-specific (elapsed time, shard index, remaining budget) may
    leak into it.  ``budget_ms`` stays available as an attribute for
    in-process callers."""

    def __init__(self, budget_ms: "int | None" = None) -> None:
        super().__init__(
            "request deadline exceeded before completion; the request was "
            "cancelled and not fully served (safe to retry with a larger "
            "budget)"
        )
        self.budget_ms = budget_ms


class AuthenticationError(ServiceError):
    """Raised when a request presents no credential, or one matching no
    registered token, on a deployment serving with ``--auth-token-file``.
    Transports map this to 401 with a ``WWW-Authenticate: Bearer`` header.

    The message is deliberately a constant: it must not leak whether a
    token was close, expired, or absent, and the 401 body must be
    byte-identical on every topology."""

    def __init__(self) -> None:
        super().__init__(
            "missing or invalid bearer token; authenticate with an "
            "'Authorization: Bearer <token>' header"
        )


class RateLimitedError(ServiceError):
    """Raised when per-client admission control (token-bucket rate or
    concurrency quota) rejects a request.  Transports map this to 429
    with a ``Retry-After`` header.

    The message is deliberately a constant (no client key, no remaining
    budget) so the 429 body is byte-identical on every topology."""

    def __init__(self) -> None:
        super().__init__(
            "rate limit exceeded; the request was not served (safe to "
            "retry after the Retry-After delay)"
        )


class PayloadTooLargeError(ServiceError):
    """Raised when a request body exceeds the transport's size cap
    before it is read.  The HTTP front end maps this to status 413; the
    request body was never parsed."""

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            f"request body of {length} bytes exceeds the maximum of "
            f"{limit} bytes"
        )
        self.length = length
        self.limit = limit


class FaultInjectionError(ReproError):
    """The default error an armed fault-injection site raises when its
    :class:`~repro.reliability.FaultPlan` rule fires without a
    site-specific exception factory (see :mod:`repro.reliability.faults`)."""


class RequestValidationError(ServiceError):
    """Raised when a wire-level request fails strict validation (unknown or
    missing fields, bad types, undecodable cursors).  The HTTP front end
    maps this to status 400; the message always names the offending field."""


class ClusterError(ServiceError):
    """Raised for invalid multi-process cluster operations (see
    :mod:`repro.cluster`): bad shard specs, malformed transport frames,
    workers that never come up."""


class WorkerStartupError(ClusterError):
    """Raised when a shard worker process exits or stays silent during its
    startup handshake.  Carries the shard index and (when the process died)
    its captured stderr tail, so a misconfigured dataset spec is debuggable
    from the supervisor side."""

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(f"shard {shard} worker failed to start: {detail}")
        self.shard = shard


class ShardUnavailableError(ClusterError):
    """Raised when a shard worker cannot serve a request within its timeout
    budget (dead, restarting, or overloaded).  The cluster router maps this
    to the pinned HTTP 503 error body — the request was *not* half-served;
    clients may safely retry."""

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(
            f"shard {shard} is unavailable: {detail}; the request was not "
            "served (safe to retry)"
        )
        self.shard = shard


class UnknownDatasetError(ServiceError):
    """Raised when a request names a dataset the :class:`~repro.service.Deployment`
    does not host.  The HTTP front end maps this to status 404."""

    def __init__(self, name: str, available: "list[str] | None" = None) -> None:
        hint = f"; hosted datasets: {sorted(available)}" if available else ""
        super().__init__(f"unknown dataset {name!r}{hint}")


class UnknownWatchError(ServiceError):
    """Raised when a ``/v1/watch`` poll or cancel names a watch id the
    dataset's live state does not hold (never registered, cancelled, or a
    different dataset's).  The HTTP front end maps this to status 404."""

    def __init__(self, watch_id: str) -> None:
        super().__init__(f"unknown watch id {watch_id!r}")
        self.watch_id = watch_id
