"""Typed query options: the public API's single validation path.

Every entry point (``SizeLEngine.size_l``, ``keyword_query``,
``Session``, the CLI) funnels its knobs into a :class:`QueryOptions` and
calls :meth:`QueryOptions.normalized` exactly once, so "unknown
algorithm", "unknown source", "unknown backend", and ``l >= 1`` checks
happen in one place — *before* any expensive OS generation.

``algorithm`` and ``backend`` accept either the built-in enums
(:class:`Algorithm`, :class:`Backend`) or the string name of anything
registered via :mod:`repro.core.registry`, so third-party plugins are
first-class citizens of the typed API.

:class:`ResultStats` is the typed record of pipeline statistics the
engine attaches to every result.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.os_tree import validate_l
from repro.core.registry import ALGORITHM_REGISTRY, BACKEND_REGISTRY
from repro.errors import SummaryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prelim import PrelimStats


class Algorithm(str, Enum):
    """Built-in size-l algorithms (Section 5); plugins go by registry name."""

    DP = "dp"
    BOTTOM_UP = "bottom_up"
    TOP_PATH = "top_path"
    TOP_PATH_OPTIMIZED = "top_path_optimized"


class Source(str, Enum):
    """The initial OS the algorithm operates on (Section 6's axis)."""

    COMPLETE = "complete"  # Algorithm 5
    PRELIM = "prelim"  # Algorithm 4


class Backend(str, Enum):
    """Built-in OS-generation backends; plugins go by registry name."""

    DATAGRAPH = "datagraph"  # fast, in-memory
    DATABASE = "database"  # I/O counted


def _normalize_algorithm(value: object) -> Algorithm | str:
    if isinstance(value, Algorithm):
        ALGORITHM_REGISTRY.get(value.value)  # built-ins can be unregistered
        return value
    if isinstance(value, str):
        ALGORITHM_REGISTRY.get(value)  # raises "unknown algorithm ..."
        try:
            return Algorithm(value)
        except ValueError:
            return value  # a registered plugin keeps its string name
    raise SummaryError(
        f"algorithm must be an Algorithm or a registered name, got {value!r}"
    )


def _normalize_source(value: object) -> Source:
    if isinstance(value, Source):
        return value
    if isinstance(value, str):
        try:
            return Source(value)
        except ValueError:
            pass
    raise SummaryError(f"unknown source {value!r}; use 'complete' or 'prelim'")


def _normalize_backend(value: object) -> Backend | str:
    if isinstance(value, Backend):
        BACKEND_REGISTRY.get(value.value)
        return value
    if isinstance(value, str):
        BACKEND_REGISTRY.get(value)  # raises "unknown backend ..."
        try:
            return Backend(value)
        except ValueError:
            return value
    raise SummaryError(
        f"backend must be a Backend or a registered name, got {value!r}"
    )


@dataclass(frozen=True)
class QueryOptions:
    """All knobs of a size-l query, validated in one place.

    The defaults follow the paper's end-to-end paradigm (Update Top-Path-l
    over a prelim-l OS from the data-graph backend); ``SizeLEngine.size_l``
    defaults to the complete source for backward compatibility.
    """

    l: int = 10  # noqa: E741 - paper notation
    algorithm: Algorithm | str = Algorithm.TOP_PATH
    source: Source | str = Source.PRELIM
    backend: Backend | str = Backend.DATAGRAPH
    max_results: int | None = None
    depth_limit: int | None = None

    def normalized(self) -> "QueryOptions":
        """Validate every field and coerce strings to enums where built-in.

        Raises :class:`~repro.errors.SummaryError` (or its
        :class:`~repro.errors.InvalidSizeError` subclass for bad ``l``)
        with the library's uniform messages.  Idempotent.
        """
        validate_l(self.l)
        algorithm = _normalize_algorithm(self.algorithm)
        source = _normalize_source(self.source)
        backend = _normalize_backend(self.backend)
        if self.max_results is not None and (
            not isinstance(self.max_results, int)
            or isinstance(self.max_results, bool)
            or self.max_results < 1
        ):
            raise SummaryError(
                f"max_results must be a positive integer or None, "
                f"got {self.max_results!r}"
            )
        if self.depth_limit is not None and (
            not isinstance(self.depth_limit, int)
            or isinstance(self.depth_limit, bool)
            or self.depth_limit < 0
        ):
            raise SummaryError(
                f"depth_limit must be a non-negative integer or None, "
                f"got {self.depth_limit!r}"
            )
        return dataclasses.replace(
            self, algorithm=algorithm, source=source, backend=backend
        )

    def replace(self, **changes: Any) -> "QueryOptions":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    # canonical string names, regardless of enum vs plugin string
    @property
    def algorithm_name(self) -> str:
        value = self.algorithm
        return value.value if isinstance(value, Algorithm) else str(value)

    @property
    def source_name(self) -> str:
        value = self.source
        return value.value if isinstance(value, Source) else str(value)

    @property
    def backend_name(self) -> str:
        value = self.backend
        return value.value if isinstance(value, Backend) else str(value)

    def as_dict(self) -> dict[str, Any]:
        """The wire-level shape: plain JSON types, canonical string names.

        The service codec (:mod:`repro.service.protocol`) round-trips this
        through :func:`~repro.service.protocol.decode_options`; enums
        flatten to their registry names.
        """
        return {
            "l": self.l,
            "algorithm": self.algorithm_name,
            "source": self.source_name,
            "backend": self.backend_name,
            "max_results": self.max_results,
            "depth_limit": self.depth_limit,
        }

    def cache_key(self) -> tuple[int, str, str, str, int | None]:
        """The memoisation key of a size-l result under these options."""
        return (
            self.l,
            self.algorithm_name,
            self.source_name,
            self.backend_name,
            self.depth_limit,
        )


def resolve_options(
    options: QueryOptions | None,
    *,
    defaults: QueryOptions,
    l: int | None = None,  # noqa: E741 - paper notation
    max_results: int | None = None,
) -> QueryOptions:
    """The normalized options of one call: *options* (else *defaults*),
    with the per-call ``l`` and ``max_results`` applied on top."""
    if options is not None and not isinstance(options, QueryOptions):
        raise SummaryError(f"options must be a QueryOptions, got {options!r}")
    merged = options if options is not None else defaults
    changes: dict[str, Any] = {}
    if l is not None:
        changes["l"] = l
    if max_results is not None:
        changes["max_results"] = max_results
    if changes:
        merged = merged.replace(**changes)
    return merged.normalized()


@dataclass
class ResultStats:
    """Typed pipeline statistics the engine attaches to a ``SizeLResult``.

    Algorithm-specific counters (heap operations, DP cell updates, ...)
    live in :attr:`counters`.
    """

    #: The scalar fields, in wire order (``/v1`` bodies and JSON exports).
    FIELDS: ClassVar[tuple[str, ...]] = (
        "source",
        "backend",
        "initial_os_size",
        "generation_seconds",
        "algorithm_seconds",
        "cached",
    )

    source: str = ""
    backend: str = ""
    initial_os_size: int = 0
    generation_seconds: float = 0.0
    algorithm_seconds: float = 0.0
    cached: bool = False
    prelim: "PrelimStats | None" = None
    counters: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_counters(cls, counters: Any, **fields: Any) -> "ResultStats":
        """Wrap an algorithm's raw counter dict with the typed fields."""
        return cls(counters=dict(counters), **fields)
