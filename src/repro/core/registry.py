"""Open registries for size-l algorithms and OS-generation backends.

The engine used to hard-code an ``ALGORITHMS`` dict; these registries
replace it with an open extension point.  Third-party code registers a new
size-l algorithm or storage backend under a name and it becomes selectable
in :class:`~repro.core.options.QueryOptions` — so from
:class:`~repro.session.Session`, the wire protocol, and the CLI (whose
``--algorithm`` / ``--backend`` choices derive from here) — without
touching ``repro`` source::

    from repro import register_algorithm

    @register_algorithm("greedy_leaves")
    def greedy_leaves(flat, l):
        ...  # a FlatOS in -> SizeLResult

    Session.from_dataset(data).keyword_query(
        "Faloutsos", options=QueryOptions(l=10, algorithm="greedy_leaves")
    )

Algorithm entries are callables ``(flat, l) -> SizeLResult`` over a
columnar :class:`~repro.core.os_tree.FlatOS` (``flat.to_object_summary()``
is one call away for node-walking code); backend
entries are factories ``(engine) -> GenerationBackend`` (the engine hands
them its database, data graph, and query interface).  A name is checked
when a ``QueryOptions`` naming it is built; one unregistered afterwards
fails at run time with the same "unknown ..." :class:`SummaryError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generic, Iterator, TypeVar

from repro.core.bottom_up import bottom_up_size_l
from repro.core.dp import optimal_size_l
from repro.core.generation import (
    DatabaseBackend,
    DataGraphBackend,
    GenerationBackend,
)
from repro.core.os_tree import FlatOS, SizeLResult
from repro.core.top_path import top_path_size_l
from repro.errors import RegistryError, SummaryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import SizeLEngine

T = TypeVar("T")

#: A size-l algorithm: summarise a FlatOS down to *l* tuple occurrences.
AlgorithmFn = Callable[[FlatOS, int], SizeLResult]

#: A backend factory: build a generation backend from an engine's resources.
BackendFactory = Callable[["SizeLEngine"], GenerationBackend]


class Registry(Generic[T]):
    """A named, open mapping with decorator-style registration.

    Names are unique; re-registering an existing name raises
    :class:`~repro.errors.RegistryError` unless ``replace=True`` (so typos
    never silently shadow a built-in).  Lookups of unknown names raise
    :class:`~repro.errors.SummaryError` listing the valid choices.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, value: T, *, replace: bool = False) -> T:
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if not replace and name in self._entries:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override"
            )
        self._entries[name] = value
        return value

    def unregister(self, name: str) -> None:
        if name not in self._entries:
            raise SummaryError(
                f"unknown {self.kind} {name!r}; choose from {sorted(self._entries)}"
            )
        del self._entries[name]

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise SummaryError(
                f"unknown {self.kind} {name!r}; choose from {sorted(self._entries)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def as_dict(self) -> dict[str, T]:
        return dict(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.names()})"


#: The global algorithm registry (name → ``(os_tree, l) -> SizeLResult``).
ALGORITHM_REGISTRY: Registry[AlgorithmFn] = Registry("algorithm")

#: The global backend registry (name → ``(engine) -> GenerationBackend``).
BACKEND_REGISTRY: Registry[BackendFactory] = Registry("backend")


def register_algorithm(
    name: str, fn: AlgorithmFn | None = None, *, replace: bool = False
):
    """Register a size-l algorithm, directly or as a decorator."""
    if fn is not None:
        return ALGORITHM_REGISTRY.register(name, fn, replace=replace)

    def decorator(func: AlgorithmFn) -> AlgorithmFn:
        ALGORITHM_REGISTRY.register(name, func, replace=replace)
        return func

    return decorator


def register_backend(
    name: str, factory: BackendFactory | None = None, *, replace: bool = False
):
    """Register an OS-generation backend factory, directly or as a decorator."""
    if factory is not None:
        return BACKEND_REGISTRY.register(name, factory, replace=replace)

    def decorator(func: BackendFactory) -> BackendFactory:
        BACKEND_REGISTRY.register(name, func, replace=replace)
        return func

    return decorator


def get_algorithm(name: str) -> AlgorithmFn:
    return ALGORITHM_REGISTRY.get(name)


def get_backend_factory(name: str) -> BackendFactory:
    return BACKEND_REGISTRY.get(name)


def algorithm_names() -> list[str]:
    return ALGORITHM_REGISTRY.names()


def backend_names() -> list[str]:
    return BACKEND_REGISTRY.names()


# --------------------------------------------------------------------- #
# Built-ins (Section 5's algorithms; the paper's two generation backends)
# --------------------------------------------------------------------- #
def _top_path_optimized(flat: FlatOS, l: int) -> SizeLResult:  # noqa: E741
    return top_path_size_l(flat, l, variant="optimized")


ALGORITHM_REGISTRY.register("dp", optimal_size_l)
ALGORITHM_REGISTRY.register("bottom_up", bottom_up_size_l)
ALGORITHM_REGISTRY.register("top_path", top_path_size_l)
ALGORITHM_REGISTRY.register("top_path_optimized", _top_path_optimized)


@register_backend("datagraph")
def _datagraph_backend(engine: "SizeLEngine") -> GenerationBackend:
    return DataGraphBackend(engine.db, engine.data_graph)


@register_backend("database")
def _database_backend(engine: "SizeLEngine") -> GenerationBackend:
    return DatabaseBackend(engine.query_interface)
