"""Pre-computation / caching of OSs and size-l results (Section 7).

The paper's conclusion: "the general case ... prevents the incremental
computation of a size-l OS from the optimal size-(l−1) OS, limiting
pre-computation or caching approaches" — but the *family analysis*
(:mod:`repro.core.analysis`) shows consecutive optima overlap heavily, so a
cache that stores complete OSs and memoises per-(subject, options) results
still removes almost all repeated work in interactive exploration
(the user sliding an l-slider re-hits the same subject over and over).

:class:`SummaryCache` is the caching layer a
:class:`~repro.session.Session` owns over its
:class:`~repro.core.engine.SizeLEngine`:

* complete OSs are cached per (R_DS table, row) — generation dominates the
  end-to-end cost (Figure 10(f)), so this is the big win;
* size-l results are memoised per (subject, l, algorithm, source, backend);
* the databases in this library are append-only, so entries never go stale
  mid-session; :meth:`invalidate` supports explicit refresh after loads.

The cache is **thread-safe** and is the concurrency point of the serving
layer (concurrent requests, each running serially on its own thread,
meet here):

* one lock-protected, subject-level LRU book holds a subject's complete
  OS and memoised results together, so eviction is atomic — a subject's
  memos can never outlive its tree or vice versa;
* generation is **single-flight**: concurrent requests for the same
  subject (or the same memo key) block on one in-flight computation
  instead of duplicating the dominant cost, which is what keeps a
  thundering herd of identical queries from melting the backend;
* cache hits return a **per-call** result whose stats are a copy with
  ``cached=True`` — the memoised object (and the first caller's
  miss-result) keeps ``cached=False`` forever;
* every lookup runs inside a read of the engine's
  :class:`~repro.live.ReadWriteLock`, taken *before* the flight is
  joined: a flight leader then never waits behind a commit while a
  reader that a commit waits for waits on the leader.

The cache is also where the **disk tier** plugs in
(:meth:`SummaryCache.attach_snapshot`): on a memory miss for a complete
OS, an attached :class:`~repro.persist.snapshot.Snapshot` is
consulted before a generation is paid — a zero-copy ``mmap`` slice load,
counted as ``disk_hits``/``disk_misses``/``snapshot_stale`` in
:meth:`stats`.  ``invalidate`` masks the matching snapshot entries, so a
scoped refresh never resurrects a stale disk tree.

All algorithm dispatch flows through :mod:`repro.core.registry`, and
options are validated *before* any OS generation (a bad algorithm name
never costs a complete-OS traversal).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.core.engine import SizeLEngine
from repro.core.options import Backend, QueryOptions, Source
from repro.core.os_tree import FlatOS, SizeLResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.persist.snapshot import Snapshot

#: Memo key of a size-l result:
#: (l, algorithm, source, backend, depth_limit).
ResultKey = tuple[int, str, str, str, "int | None"]

#: Subject key: (R_DS table, row id).
SubjectKey = tuple[str, int]


@dataclass(frozen=True)
class CacheStats:
    """One atomic reading of a :class:`SummaryCache`'s counters.

    ``/v1/stats`` and the serving benchmarks read the typed attributes;
    :meth:`as_dict` is the conversion for JSON payloads.
    """

    hits: int = 0
    misses: int = 0
    cached_subjects: int = 0
    cached_results: int = 0
    tree_generations: int = 0
    result_computations: int = 0
    single_flight_waits: int = 0
    lock_contention: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    snapshot_stale: int = 0
    #: buffer-pool page counters (repro.storage) — zero when the engine
    #: serves fully resident; merged across shards like every counter
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0

    @property
    def requests(self) -> int:
        """Every ``run()``/tree request that hit the cache's front door."""
        return self.hits + self.misses + self.single_flight_waits

    @property
    def hit_rate(self) -> float:
        """Served-without-computing fraction (waiters ride a leader's work)."""
        return (self.hits + self.single_flight_waits) / max(1, self.requests)

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (JSON payloads, comparisons)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def merge(cls, *stats: "CacheStats | dict[str, int]") -> "CacheStats":
        """One fleet-wide reading from many caches' counters.

        Sums every raw counter; the derived ``requests``/``hit_rate``
        properties recompute from the merged totals (a mean of per-cache
        hit rates would weight an idle cache the same as a busy one).
        Accepts typed readings or their ``as_dict()`` wire form — the
        cluster router merges per-worker counters straight off JSON
        responses.  ``merge()`` of nothing is the zero reading.
        """
        totals = dict.fromkeys((f.name for f in dataclasses.fields(cls)), 0)
        for reading in stats:
            counters = (
                reading.as_dict() if isinstance(reading, CacheStats) else reading
            )
            for key in totals:
                value = counters.get(key, 0)
                if not isinstance(value, int) or isinstance(value, bool):
                    raise TypeError(
                        f"cannot merge non-integer counter {key}={value!r}"
                    )
                totals[key] += value
        return cls(**totals)


@dataclass
class _SubjectEntry:
    """Everything the cache holds for one subject, evicted as one unit."""

    flat: FlatOS | None = None
    results: dict[ResultKey, SizeLResult] = field(default_factory=dict)


class _InFlight:
    """One in-flight generation other threads can wait on (single-flight)."""

    __slots__ = ("event", "value", "error", "stale")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object | None = None
        self.error: BaseException | None = None
        #: set by invalidate(): hand the value to waiters, do not cache it
        self.stale = False


def _per_call(result: SizeLResult) -> SizeLResult:
    """A caller-facing view of a memoised result, marked served-from-cache.

    The tree/selection payload is shared (callers must not mutate it); the
    stats record is copied so flipping ``cached`` — or a caller poking at
    timing fields — never reaches the memoised object or earlier callers.
    """
    stats = result.stats
    stats = dataclasses.replace(
        stats,
        cached=True,
        counters=dict(stats.counters),
        prelim=None if stats.prelim is None else dataclasses.replace(stats.prelim),
    )
    return dataclasses.replace(result, stats=stats)


class SummaryCache:
    """A thread-safe LRU cache of complete OSs and size-l results.

    ``max_subjects`` bounds the number of cached subjects; a subject's
    complete OS and its memoised size-l results live in one LRU slot and
    are evicted together.  All bookkeeping happens under one lock;
    generation runs outside it, deduplicated by a single-flight table so
    each subject's tree and each memo key is computed at most once no
    matter how many threads ask concurrently.
    """

    def __init__(
        self,
        engine: SizeLEngine,
        max_subjects: int = 64,
        snapshot: "Snapshot | None" = None,
    ) -> None:
        if max_subjects < 1:
            raise ValueError(f"max_subjects must be >= 1, got {max_subjects}")
        self.engine = engine
        self.max_subjects = max_subjects
        self._lock = threading.RLock()
        self._book: OrderedDict[SubjectKey, _SubjectEntry] = OrderedDict()
        self._inflight: dict[tuple, _InFlight] = {}
        #: the disk tier: an attached snapshot tried on memory misses
        self._snapshot: "Snapshot | None" = None
        #: snapshot subjects masked by invalidate(); never served again
        self._stale_disk: set[SubjectKey] = set()
        self.hits = 0
        self.misses = 0
        #: complete-OS generations actually executed (single-flight leaders)
        self.tree_generations = 0
        #: size-l pipelines actually executed (single-flight leaders)
        self.result_computations = 0
        #: calls that waited on another thread's in-flight computation
        self.single_flight_waits = 0
        #: lock acquisitions that found the lock held by another thread
        self.lock_contention = 0
        self.evictions = 0
        #: memory misses served by the snapshot tier (no generation paid)
        self.disk_hits = 0
        #: memory misses the attached snapshot could not serve
        self.disk_misses = 0
        #: disk lookups refused because invalidate() masked the entry
        self.snapshot_stale = 0
        if snapshot is not None:
            self.attach_snapshot(snapshot)

    # ------------------------------------------------------------------ #
    # Locking / LRU plumbing (callers hold self._lock unless noted)
    # ------------------------------------------------------------------ #
    @contextmanager
    def _acquire(self):
        """The cache lock, counting contended acquisitions."""
        if not self._lock.acquire(blocking=False):
            self._lock.acquire()
            self.lock_contention += 1
        try:
            yield
        finally:
            self._lock.release()

    def _touch(self, subject: SubjectKey) -> _SubjectEntry:
        """The subject's entry, created if missing, moved to MRU position."""
        entry = self._book.get(subject)
        if entry is None:
            entry = _SubjectEntry()
            self._book[subject] = entry
        else:
            self._book.move_to_end(subject)
        return entry

    def _evict_overflow(self) -> None:
        """Drop LRU subjects until the book respects ``max_subjects``.

        A subject leaves with its tree *and* memos — the unified book is
        what makes this atomic (the three-store layout this replaces could
        evict a subject's memos while its tree survived, or vice versa).
        """
        while len(self._book) > self.max_subjects:
            self._book.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------ #
    # Single-flight core
    # ------------------------------------------------------------------ #
    def _single_flight(
        self,
        flight_key: tuple,
        lookup: Callable[[], object | None],
        compute: Callable[[], object],
        insert: Callable[[object], None],
    ):
        """Lookup-or-compute with in-flight deduplication.

        *lookup* runs under the lock and returns the cached value or
        ``None``; *compute* runs outside the lock (at most once per key
        across all threads); *insert* runs under the lock after a
        successful compute.  Waiters receive the leader's value directly —
        never via a re-lookup, which could miss if the entry was evicted
        in the instant between insert and wake-up.
        """
        with self._acquire():
            value = lookup()
            if value is not None:
                self.hits += 1
                return value, True
            flight = self._inflight.get(flight_key)
            leader = flight is None
            if leader:
                self.misses += 1
                flight = _InFlight()
                self._inflight[flight_key] = flight
            else:
                self.single_flight_waits += 1
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                # Deliberately the leader's exception object itself, matching
                # concurrent.futures.Future.result() semantics for multiple
                # waiters; generic exception copying breaks kwargs-only types.
                raise flight.error
            return flight.value, True
        try:
            value = compute()
        except BaseException as exc:
            with self._acquire():
                flight.error = exc
                self._pop_flight(flight_key, flight)
            flight.event.set()
            raise
        # The value is set before attempting the insert and the wake-up is
        # in a finally: even if insert()/_evict_overflow() raises (e.g.
        # MemoryError caching a large tree), waiters still receive the
        # computed value instead of parking on the event forever.
        flight.value = value
        try:
            with self._acquire():
                if not flight.stale:  # marked by a concurrent invalidate()
                    insert(value)
                    self._evict_overflow()
        finally:
            with self._acquire():
                self._pop_flight(flight_key, flight)
            flight.event.set()
        return value, False

    def _pop_flight(self, flight_key: tuple, flight: _InFlight) -> None:
        """Retire *flight* — only if it still owns its key.

        ``invalidate`` detaches in-flight entries, after which a new leader
        may occupy the same key; a detached leader finishing late must not
        knock that successor out of the table.
        """
        if self._inflight.get(flight_key) is flight:
            del self._inflight[flight_key]

    # ------------------------------------------------------------------ #
    # Snapshot (disk) tier
    # ------------------------------------------------------------------ #
    def attach_snapshot(self, snapshot: "Snapshot") -> None:
        """Attach a precomputed snapshot as the tier below memory.

        Validates the snapshot against this cache's engine first
        (fingerprint + store digest — see
        :meth:`repro.persist.snapshot.Snapshot.validate_engine`); a
        mismatched snapshot raises instead of silently serving wrong
        trees.  Replaces any previously attached snapshot and clears its
        stale masks.
        """
        snapshot.validate_engine(self.engine)
        with self._acquire():
            self._snapshot = snapshot
            self._stale_disk = set()

    @property
    def snapshot(self) -> "Snapshot | None":
        """The attached snapshot, if any."""
        return self._snapshot

    def _disk_lookup(self, subject: SubjectKey) -> FlatOS | None:
        """Try the snapshot tier for a complete OS.

        Runs outside the lock (the caller is the single-flight leader for
        this subject, so at most one disk load per subject is in flight).
        Returns ``None`` — counting the reason — when no snapshot is
        attached, the entry was masked by :meth:`invalidate`, or the
        subject was never precomputed.
        """
        snapshot = self._snapshot
        if snapshot is None:
            return None
        if snapshot.l_values is not None:
            # The cache hands disk trees to *every* summary size, so only
            # snapshots of complete OSs (l_values null) are servable; a
            # future depth-limited snapshot must not be over-served.
            with self._acquire():
                self.disk_misses += 1
            return None
        with self._acquire():
            if subject in self._stale_disk:
                self.snapshot_stale += 1
                return None
        rds_table, row_id = subject
        tree = snapshot.load_flat(
            rds_table, row_id, self.engine.gds_for(rds_table), self.engine.db
        )
        with self._acquire():
            if tree is None:
                self.disk_misses += 1
            else:
                self.disk_hits += 1
        return tree

    # ------------------------------------------------------------------ #
    # Complete OSs
    # ------------------------------------------------------------------ #
    def complete_os_flat(self, rds_table: str, row_id: int) -> FlatOS:
        """The cached complete OS of a subject (generated on first use).

        On a memory miss the attached snapshot is consulted before paying
        a generation.
        """
        subject = (rds_table, row_id)

        def lookup():
            entry = self._book.get(subject)
            if entry is None or entry.flat is None:
                return None
            self._book.move_to_end(subject)
            return entry.flat

        def compute():
            tree = self._disk_lookup(subject)
            if tree is None:
                tree = self.engine.complete_os_flat(rds_table, row_id)
                with self._acquire():
                    self.tree_generations += 1
            return tree

        def insert(tree):
            self._touch(subject).flat = tree

        with self.engine.live_guard.read():
            tree, _from_cache = self._single_flight(
                (subject, "flat"), lookup, compute, insert
            )
        return tree

    # ------------------------------------------------------------------ #
    # Size-l results
    # ------------------------------------------------------------------ #
    def run(
        self, rds_table: str, row_id: int, options: QueryOptions
    ) -> SizeLResult:
        """Memoised generate+summarise pipeline under *options*.

        Validation happens up front (registry lookups, ``l >= 1``) so bad
        input never triggers an expensive OS generation.  The
        complete-source / data-graph path reuses the cached complete OS;
        everything else delegates to the engine and memoises the result.

        A miss returns the memoised object itself (``stats.cached`` stays
        ``False``); hits — including threads that waited on the miss's
        in-flight computation — return a per-call copy with a fresh stats
        record marked ``cached=True``.
        """
        options = options.normalized()
        subject = (rds_table, row_id)
        result_key = options.cache_key()

        def lookup():
            entry = self._book.get(subject)
            if entry is None:
                return None
            result = entry.results.get(result_key)
            if result is not None:
                self._book.move_to_end(subject)
            return result

        def compute():
            result = self._compute(rds_table, row_id, options)
            with self._acquire():
                self.result_computations += 1
            return result

        def insert(result):
            self._touch(subject).results[result_key] = result

        with self.engine.live_guard.read():
            result, from_cache = self._single_flight(
                (subject, "result", result_key), lookup, compute, insert
            )
        return _per_call(result) if from_cache else result

    def _compute(
        self, rds_table: str, row_id: int, options: QueryOptions
    ) -> SizeLResult:
        """One actual generate+summarise pipeline run (outside the lock)."""
        reusable_tree = (
            options.source_name == Source.COMPLETE.value
            and options.backend_name == Backend.DATAGRAPH.value
            and options.depth_limit is None
        )
        if not reusable_tree:
            return self.engine.run(rds_table, row_id, options)
        gen_start = perf_counter()
        tree = self.complete_os_flat(rds_table, row_id)
        return self.engine.summarise(tree, options, perf_counter() - gen_start)

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    def invalidate(self, rds_table: str | None = None, row_id: int | None = None) -> None:
        """Drop cached entries (all, per table, or one subject).

        Matching entries of an attached snapshot are masked permanently —
        disk trees were computed against pre-refresh data and must never
        be re-served; a bare ``invalidate()`` disables the whole disk
        tier until :meth:`attach_snapshot` re-validates and re-attaches.

        ``row_id`` without ``rds_table`` is ambiguous (row ids are only
        unique per table) and raises :class:`ValueError` — it used to be
        silently ignored, clearing the entire cache.
        """
        if rds_table is None and row_id is not None:
            raise ValueError(
                "invalidate(row_id=...) requires rds_table; row ids are "
                "only unique within a table"
            )

        def affected(subject: SubjectKey) -> bool:
            return rds_table is None or (
                subject[0] == rds_table and (row_id is None or subject[1] == row_id)
            )

        with self._acquire():
            # Detach matching in-flight computations too: a caller arriving
            # *after* this invalidate must start a fresh generation, not
            # inherit a result computed against the pre-refresh data.  The
            # detached leaders still hand their (stale) value to the
            # threads already waiting on them, but skip caching it.
            # Unaffected flights are untouched — a scoped invalidate must
            # not throw away other subjects' in-flight work.
            for key in [
                key for key in self._inflight if affected(key[0])
            ]:
                self._inflight[key].stale = True
                del self._inflight[key]
            for subject in [s for s in self._book if affected(s)]:
                del self._book[subject]
            # Mask the disk tier too: a snapshot entry is immutable on
            # disk, so "invalidated" means "never serve it again" — the
            # next request regenerates from the live database instead of
            # resurrecting the pre-refresh tree.  A bare invalidate()
            # therefore masks the *whole* snapshot (re-attach via
            # attach_snapshot, which re-validates, to re-enable the tier
            # after a refresh).  The single-subject case is O(1); only
            # table-wide and full invalidates scan the subject map.
            if self._snapshot is not None:
                if rds_table is not None and row_id is not None:
                    subject = (rds_table, row_id)
                    if subject in self._snapshot.subjects:
                        self._stale_disk.add(subject)
                else:
                    for subject in self._snapshot.subjects:
                        if affected(subject):
                            self._stale_disk.add(subject)

    @property
    def cached_subjects(self) -> int:
        """Subjects holding *anything* — trees or memoised results.

        (The pre-unification count looked only at the tree stores and
        undercounted subjects whose prelim/database-path results were
        memoised without a cached tree.)
        """
        with self._acquire():
            return len(self._book)

    @property
    def cached_results(self) -> int:
        """Memoised size-l results across all cached subjects."""
        with self._acquire():
            return sum(len(entry.results) for entry in self._book.values())

    def stats(self) -> CacheStats:
        """One consistent :class:`CacheStats` reading of every counter."""
        # The engine's buffer pool (repro.storage) keeps its own counters;
        # surfacing them here puts them on /v1/stats and /v1/metrics for
        # free (both render whatever as_dict() exposes).
        pool = getattr(self.engine, "buffer_pool", None)
        with self._acquire():  # RLock: the properties re-enter safely
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                cached_subjects=self.cached_subjects,
                cached_results=self.cached_results,
                tree_generations=self.tree_generations,
                result_computations=self.result_computations,
                single_flight_waits=self.single_flight_waits,
                lock_contention=self.lock_contention,
                evictions=self.evictions,
                disk_hits=self.disk_hits,
                disk_misses=self.disk_misses,
                snapshot_stale=self.snapshot_stale,
                pool_hits=pool.hits if pool is not None else 0,
                pool_misses=pool.misses if pool is not None else 0,
                pool_evictions=pool.evictions if pool is not None else 0,
            )
