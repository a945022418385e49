"""The service layer: a transport-agnostic surface over the library.

PRs 1–4 built a fast, concurrent, snapshot-backed *in-process* engine whose
only entry point was a Python :class:`~repro.session.Session` bound to one
dataset.  This package turns that into a *service*:

* :mod:`repro.service.protocol` — versioned, typed request/response DTOs
  (:class:`QueryRequest`, :class:`SizeLRequest`, :class:`BatchRequest`,
  :class:`QueryResponse`, ...) with pure-dict/JSON codecs, strict
  validation (:class:`~repro.errors.RequestValidationError`), and stable
  ``(rank, table, row_id)`` pagination cursors;
* :mod:`repro.service.deployment` — a :class:`Deployment` registry hosting
  many named datasets (each a lazily built Session + optional snapshot) in
  one process, with independent invalidation and hot snapshot reload;
* :mod:`repro.service.dispatch` — the transport-agnostic request
  dispatcher the HTTP front end, the CLI, and the benchmarks share;
* :mod:`repro.service.http` — a stdlib-only ``ThreadingHTTPServer`` front
  end (``repro serve``) exposing ``/v1/query``, ``/v1/size-l``,
  ``/v1/batch``, ``/v1/datasets``, ``/v1/stats``, ``/v1/metrics``, and
  ``/v1/admin/invalidate|reload`` with pinned JSON error bodies;
* :mod:`repro.service.middleware` — the composable request pipeline both
  topologies serve through: per-request :class:`RequestContext` (one id
  across router→worker hops), bearer-token auth, per-client rate limits,
  structured JSON access logs, and Prometheus metrics.

Every future scaling PR (sharding, replicas, rate limiting) plugs into
this layer rather than into Session internals.
"""

from repro.service.deployment import Deployment
from repro.service.dispatch import ServiceDispatcher
from repro.service.http import create_server
from repro.service.middleware import (
    MiddlewareConfig,
    MiddlewarePipeline,
    RequestContext,
    build_pipeline,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    Cursor,
    QueryRequest,
    QueryResponse,
    ResultEntry,
    SizeLRequest,
    SizeLResponse,
    decode_options,
    decode_request,
    encode_error,
    encode_response,
)

__all__ = [
    "PROTOCOL_VERSION",
    "BatchRequest",
    "BatchResponse",
    "Cursor",
    "Deployment",
    "MiddlewareConfig",
    "MiddlewarePipeline",
    "QueryRequest",
    "QueryResponse",
    "RequestContext",
    "ResultEntry",
    "ServiceDispatcher",
    "build_pipeline",
    "SizeLRequest",
    "SizeLResponse",
    "create_server",
    "decode_options",
    "decode_request",
    "encode_error",
    "encode_response",
]
