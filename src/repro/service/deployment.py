"""Deployment — many named datasets served from one process.

A :class:`Deployment` is the registry the CLI's ``repro serve`` and the
HTTP front end share, and the recommended multi-dataset entry point for
library users (one :class:`~repro.session.Session` per dataset was the
only option before):

* each entry is a *recipe* — an :class:`~repro.core.builder.EngineBuilder`
  (or a prebuilt Session) plus an optional snapshot path — built
  **lazily** on first use, under a per-entry lock so concurrent first
  requests share one build;
* entries are independent: invalidating or reloading ``"dblp"`` never
  touches ``"tpch"``'s cache or in-flight work;
* :meth:`reload` hot-swaps an entry's snapshot tier: the directory is
  re-opened (checksums re-verified) and re-attached through PR 4's
  fingerprint validation — a mismatched or corrupt replacement raises the
  typed persist error and the entry **keeps serving** its previous state.

Quickstart::

    from repro.service import Deployment

    deployment = Deployment()
    deployment.add("dblp", named="dblp", scale=0.5, snapshot="snap.d")
    deployment.add("tpch", named="tpch")
    session = deployment.session("dblp")      # built on first use
    deployment.reload("dblp")                 # hot snapshot swap
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.builder import EngineBuilder
from repro.core.options import QueryOptions
from repro.errors import ServiceError, UnknownDatasetError

if TYPE_CHECKING:  # pragma: no cover
    from repro.persist.snapshot import Snapshot
    from repro.session import Session


@dataclass
class _Entry:
    """One hosted dataset: the recipe, the lazily built Session, a lock."""

    name: str
    builder: EngineBuilder | None = None
    session: "Session | None" = None
    snapshot_path: Path | None = None
    verify: bool = True
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: generation counter, bumped by reload() — exposed via describe()
    reloads: int = 0


class Deployment:
    """A registry of named datasets, each lazily built and independently
    managed.  Thread-safe: the registry map has its own lock, each entry
    builds and reloads under a per-entry lock, and everything downstream
    of :meth:`session` is the PR 3 thread-safe serving stack."""

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _register(self, entry: _Entry) -> "Deployment":
        with self._lock:
            if entry.name in self._entries:
                raise ServiceError(
                    f"dataset {entry.name!r} is already registered; "
                    "remove() it first to replace the recipe"
                )
            self._entries[entry.name] = entry
        return self

    def add(
        self,
        name: str,
        *,
        named: str | None = None,
        dataset: Any | None = None,
        builder: EngineBuilder | None = None,
        seed: int = 7,
        scale: float = 1.0,
        theta: float = 0.7,
        snapshot: "str | Path | None" = None,
        verify: bool = True,
        cache_size: int | None = None,
        defaults: QueryOptions | None = None,
    ) -> "Deployment":
        """Register a dataset recipe under *name* (fluent; lazy build).

        Exactly one source: ``named=`` (an on-the-fly demo database),
        ``dataset=`` (any object exposing ``db``/``default_gds()``/
        ``default_store()``), or ``builder=`` (a fully configured
        :class:`EngineBuilder`, treated as an immutable recipe — the
        entry works on a private copy, so registering one builder under
        several names never cross-contaminates their cache sizes or
        snapshots).  ``snapshot`` attaches a precomputed directory —
        kept as a *path* so :meth:`reload` can re-open it.
        """
        sources = [s for s in (named, dataset, builder) if s is not None]
        if len(sources) != 1:
            raise ServiceError(
                f"dataset {name!r}: pass exactly one of named=/dataset=/builder= "
                f"(got {len(sources)})"
            )
        if builder is None:
            if named is not None:
                builder = EngineBuilder.named(named, seed=seed, scale=scale, theta=theta)
            else:
                builder = EngineBuilder.from_dataset(dataset, theta=theta)
        else:
            # entry-private copy: the with_* calls below (and the lazy
            # with_snapshot in session()) must not leak into a builder
            # the caller may reuse for another entry
            shared = builder
            builder = copy.copy(shared)
            builder._gds = dict(shared._gds)
        if cache_size is not None:
            builder.with_cache_size(cache_size)
        if defaults is not None:
            builder.with_defaults(defaults)
        snapshot_path = None if snapshot is None else Path(snapshot)
        return self._register(
            _Entry(
                name=name,
                builder=builder,
                snapshot_path=snapshot_path,
                verify=verify,
            )
        )

    def add_session(
        self,
        name: str,
        session: "Session",
        *,
        snapshot: "str | Path | None" = None,
    ) -> "Deployment":
        """Register an already built Session (e.g. the CLI's loader output).

        ``snapshot`` records the directory backing the session's disk
        tier so :meth:`reload` works; it defaults to the path of the
        snapshot already attached to the session's cache, if any.
        """
        snapshot_path: Path | None = None
        if snapshot is not None:
            snapshot_path = Path(snapshot)
        elif session.cache.snapshot is not None:
            snapshot_path = Path(session.cache.snapshot.path)
        return self._register(
            _Entry(name=name, session=session, snapshot_path=snapshot_path)
        )

    def remove(self, name: str) -> None:
        """Drop an entry; an unknown name raises UnknownDatasetError."""
        with self._lock:
            if self._entries.pop(name, None) is None:
                raise UnknownDatasetError(name, list(self._entries))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _entry(self, name: str) -> _Entry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise UnknownDatasetError(name, list(self._entries)) from None

    def names(self) -> list[str]:
        """Hosted dataset names, registration order."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def session(self, name: str) -> "Session":
        """The dataset's Session, built (and snapshot-attached) on first use.

        The per-entry lock makes the build single-flight: concurrent first
        requests for one dataset pay one synthesis + one engine build;
        requests for *other* datasets are never blocked by it.  Once
        built, the lock-free fast path below means serving is never
        stalled behind slow entry-lock holders (a reload verifying
        checksums, a build in flight on a *re-added* entry).
        """
        entry = self._entry(name)
        session = entry.session
        if session is not None:
            return session
        with entry.lock:
            if entry.session is None:
                builder = entry.builder
                assert builder is not None  # add() guarantees one source
                if entry.snapshot_path is not None:
                    builder.with_snapshot(entry.snapshot_path, verify=entry.verify)
                entry.session = builder.build_session()
            return entry.session

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    def invalidate(
        self, name: str, rds_table: str | None = None, row_id: int | None = None
    ) -> None:
        """Scoped cache invalidation of one dataset (others untouched)."""
        self.session(name).invalidate(rds_table, row_id)

    def reload(self, name: str) -> dict[str, Any]:
        """Hot-swap a dataset's snapshot tier from its directory.

        Re-opens the snapshot path (checksum verification per the entry's
        ``verify`` policy) and re-attaches it, which re-runs the
        fingerprint + store-digest validation of PR 4.  On *any* failure —
        missing directory, corrupt arena, mismatched fingerprint — the
        typed persist error propagates and the entry keeps serving its
        current snapshot and caches: a bad reload must never take the
        deployment down.
        """
        entry = self._entry(name)
        session = self.session(name)
        if entry.snapshot_path is None:
            raise ServiceError(
                f"dataset {name!r} has no snapshot path to reload; "
                "register it with snapshot=... to enable hot reload"
            )
        from repro.persist.snapshot import Snapshot

        # Opened (and checksum-verified) OUTSIDE the entry lock: "hot"
        # means requests keep flowing while the replacement's arenas are
        # hashed — only the O(ms) attach below is serialized.
        snapshot: "Snapshot" = Snapshot.open(entry.snapshot_path, verify=entry.verify)
        with entry.lock:
            # validates the fingerprint against the live engine; raises
            # (leaving the old tier attached) on mismatch
            session.cache.attach_snapshot(snapshot)
            entry.reloads += 1
            return {
                "dataset": name,
                "path": str(snapshot.path),
                "subjects": len(snapshot),
                "reloads": entry.reloads,
            }

    def describe(self, name: str | None = None) -> dict[str, Any]:
        """Registry metadata (one dataset, or all of them).

        Describing is **non-building**: unbuilt entries report
        ``built: False`` instead of paying dataset synthesis — ``GET
        /v1/datasets`` must stay cheap on a freshly booted server.
        """
        if name is not None:
            entry = self._entry(name)
            with entry.lock:
                info: dict[str, Any] = {
                    "dataset": name,
                    "built": entry.session is not None,
                    "snapshot": (
                        None
                        if entry.snapshot_path is None
                        else str(entry.snapshot_path)
                    ),
                    "reloads": entry.reloads,
                }
                if entry.session is not None:
                    info["engine"] = entry.session.engine.describe()
            return info
        return {n: self.describe(n) for n in self.names()}

    def stats(self, name: str) -> dict[str, Any]:
        """One dataset's serving statistics (cache + defaults + engine)."""
        session = self.session(name)
        info = session.describe()
        info["dataset"] = name
        return info
