"""A page-granular LRU buffer pool over mmap'd CSR arenas.

The snapshot store (:mod:`repro.persist`) already keeps every derived
array on disk in an mmap-attachable layout; this module adds the piece
EMBANKS-style disk-based generation needs for graphs too big for RAM: a
bounded pool of RAM-resident *pages* with pin/unpin semantics and
hit/miss/eviction accounting, plus :class:`PagedArray` — an ndarray-like
wrapper that routes every read through the pool so at most
``capacity_bytes`` of arena data is materialised at once.

Wrap a whole data graph with :func:`paged_data_graph`; the returned
graph advertises ``prefers_page_order`` so
:func:`repro.core.generation.generate_os_flat` visits each expansion
frontier in ascending row (and therefore page) order — sequential reads
instead of random ones, without changing the generated tree.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.datagraph.graph import DataGraph, FkAdjacency
from repro.errors import StorageError

#: Default page size: 64 KiB — large enough that a sequential frontier
#: sweep amortises the per-page bookkeeping, small enough that a 10%-of-
#: arena pool still holds hundreds of pages on the bench datasets.
DEFAULT_PAGE_BYTES = 64 * 1024

PageKey = tuple[str, int]


class BufferPool:
    """A thread-safe LRU pool of array pages with pin counts.

    Pages are keyed ``(array_id, page_no)``.  :meth:`fetch` returns the
    page pinned; callers must :meth:`unpin` when done — pinned pages are
    never evicted, so a reader holding a page across an eviction storm
    cannot have it yanked mid-gather.  Eviction only ever happens on the
    insert path, walking unpinned pages in LRU order until the pool is
    back under ``capacity_bytes`` (pinned pages may transiently push the
    pool over budget rather than deadlock the reader).
    """

    def __init__(
        self, capacity_bytes: int, *, page_bytes: int = DEFAULT_PAGE_BYTES
    ) -> None:
        if capacity_bytes <= 0:
            raise StorageError(
                f"buffer pool capacity must be positive, got {capacity_bytes}"
            )
        if page_bytes <= 0:
            raise StorageError(
                f"buffer pool page size must be positive, got {page_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.page_bytes = int(page_bytes)
        self._pages: "OrderedDict[PageKey, np.ndarray]" = OrderedDict()
        self._pins: dict[PageKey, int] = {}
        self._resident_bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Pin / unpin
    # ------------------------------------------------------------------ #
    def fetch(
        self, array_id: str, page_no: int, loader: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Return page ``(array_id, page_no)`` pinned, loading on miss."""
        key = (array_id, page_no)
        with self._lock:
            page = self._pages.get(key)
            if page is not None:
                self.hits += 1
                self._pages.move_to_end(key)
                self._pins[key] = self._pins.get(key, 0) + 1
                return page
            self.misses += 1
            page = loader()
            self._pages[key] = page
            self._pins[key] = self._pins.get(key, 0) + 1
            self._resident_bytes += page.nbytes
            self._evict_locked()
            return page

    def unpin(self, array_id: str, page_no: int) -> None:
        key = (array_id, page_no)
        with self._lock:
            count = self._pins.get(key, 0)
            if count <= 1:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count - 1

    def _evict_locked(self) -> None:
        if self._resident_bytes <= self.capacity_bytes:
            return
        for key in list(self._pages):
            if self._resident_bytes <= self.capacity_bytes:
                break
            if self._pins.get(key, 0) > 0:
                continue  # pinned pages are never evicted
            page = self._pages.pop(key)
            self._resident_bytes -= page.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "pool_hits": self.hits,
                "pool_misses": self.misses,
                "pool_evictions": self.evictions,
                "pool_resident_bytes": self._resident_bytes,
                "pool_capacity_bytes": self.capacity_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool(capacity={self.capacity_bytes}, "
            f"resident={self._resident_bytes}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


class PagedArray:
    """A read-only 1-D ndarray facade that reads through a :class:`BufferPool`.

    Supports exactly the access patterns the CSR hot path uses — scalar
    indexing, contiguous slices, and integer fancy indexing — each
    implemented as pin → gather → unpin over the pages it touches, so the
    RAM-resident working set never exceeds the pool budget (plus pinned
    pages in flight).  ``__array__`` falls back to the backing array so
    unforeseen numpy operations stay correct (at the cost of bypassing
    the pool for that one call).
    """

    __slots__ = ("_base", "_pool", "_id", "_page_len", "dtype")

    def __init__(self, base: np.ndarray, pool: BufferPool, array_id: str) -> None:
        if base.ndim != 1:
            raise StorageError(
                f"PagedArray wraps 1-D arrays only, got ndim={base.ndim} "
                f"for {array_id!r}"
            )
        self._base = base
        self._pool = pool
        self._id = array_id
        self._page_len = max(1, pool.page_bytes // max(1, base.dtype.itemsize))
        self.dtype = base.dtype

    # -- ndarray-protocol surface used by the CSR hot path ------------- #
    @property
    def size(self) -> int:
        return int(self._base.size)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._base.shape

    @property
    def ndim(self) -> int:
        return 1

    @property
    def nbytes(self) -> int:
        return int(self._base.nbytes)

    def __len__(self) -> int:
        return int(self._base.size)

    def __array__(self, dtype: Any = None) -> np.ndarray:
        # Correctness escape hatch: materialises the whole base array.
        return np.asarray(self._base, dtype=dtype)

    # -- paged reads ---------------------------------------------------- #
    def _load_page(self, page_no: int) -> np.ndarray:
        lo = page_no * self._page_len
        hi = min(lo + self._page_len, self._base.size)
        # np.array copies the mmap slice: the pool owns RAM-resident bytes
        # the OS page cache is free to drop from the arena file.
        return np.array(self._base[lo:hi])

    def _page(self, page_no: int) -> np.ndarray:
        return self._pool.fetch(
            self._id, page_no, lambda: self._load_page(page_no)
        )

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self._base.size
            if not 0 <= index < self._base.size:
                raise IndexError(
                    f"index {key} out of bounds for PagedArray of size "
                    f"{self._base.size}"
                )
            page_no, offset = divmod(index, self._page_len)
            page = self._page(page_no)
            try:
                return page[offset]
            finally:
                self._pool.unpin(self._id, page_no)
        if isinstance(key, slice):
            start, stop, step = key.indices(self._base.size)
            if step != 1:
                return self[np.arange(start, stop, step, dtype=np.int64)]
            return self._gather_slice(start, stop)
        indices = np.asarray(key)
        if indices.dtype == np.bool_:
            indices = np.nonzero(indices)[0]
        return self._gather_fancy(indices)

    def _gather_slice(self, start: int, stop: int) -> np.ndarray:
        if stop <= start:
            return np.empty(0, dtype=self.dtype)
        out = np.empty(stop - start, dtype=self.dtype)
        first_page = start // self._page_len
        last_page = (stop - 1) // self._page_len
        for page_no in range(first_page, last_page + 1):
            page_lo = page_no * self._page_len
            lo = max(start, page_lo)
            hi = min(stop, page_lo + self._page_len)
            page = self._page(page_no)
            try:
                out[lo - start : hi - start] = page[lo - page_lo : hi - page_lo]
            finally:
                self._pool.unpin(self._id, page_no)
        return out

    def _gather_fancy(self, indices: np.ndarray) -> np.ndarray:
        if indices.size == 0:
            return np.empty(indices.shape, dtype=self.dtype)
        flat = indices.reshape(-1).astype(np.int64, copy=False)
        out = np.empty(flat.size, dtype=self.dtype)
        page_nos = flat // self._page_len
        offsets = flat - page_nos * self._page_len
        # One pinned fetch per distinct page; ascending page order so a
        # page-ordered frontier turns into a sequential arena sweep.
        for page_no in np.unique(page_nos):
            mask = page_nos == page_no
            page = self._page(int(page_no))
            try:
                out[mask] = page[offsets[mask]]
            finally:
                self._pool.unpin(self._id, int(page_no))
        return out.reshape(indices.shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedArray({self._id!r}, size={self._base.size}, "
            f"dtype={self.dtype})"
        )


class PagedDataGraph(DataGraph):
    """A :class:`~repro.datagraph.graph.DataGraph` whose CSR arrays read
    through a :class:`BufferPool`.

    ``prefers_page_order`` tells :func:`generate_os_flat` to visit each
    expansion frontier in ascending row order (the IO-aware ordering);
    the generated tree is unchanged because level ordering keys encode
    original frontier positions and the level ends in a stable sort.
    """

    prefers_page_order = True

    def __init__(
        self,
        adjacencies: dict[tuple[str, str], FkAdjacency],
        pool: BufferPool,
        base: DataGraph,
    ) -> None:
        super().__init__(adjacencies)
        self.pool = pool
        self.base = base


def paged_data_graph(graph: DataGraph, pool: BufferPool) -> PagedDataGraph:
    """Wrap every CSR array of *graph* in a :class:`PagedArray` over *pool*."""
    adjacencies: dict[tuple[str, str], FkAdjacency] = {}
    for adj in graph.adjacencies():
        array_id = f"{adj.owner}.{adj.column}"
        adjacencies[(adj.owner, adj.column)] = FkAdjacency(
            owner=adj.owner,
            column=adj.column,
            target=adj.target,
            forward=PagedArray(adj.forward, pool, array_id + ":forward"),
            backward_indptr=PagedArray(
                adj.backward_indptr, pool, array_id + ":indptr"
            ),
            backward_indices=PagedArray(
                adj.backward_indices, pool, array_id + ":indices"
            ),
        )
    return PagedDataGraph(adjacencies, pool, graph)
