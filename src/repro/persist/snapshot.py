"""The versioned on-disk snapshot format and its mmap-backed reader.

A snapshot is a **directory**::

    <snapshot>/
      manifest.json           # format version, fingerprint, checksums, layout
      trees_indptr.npy        # int64, one entry per subject + 1
      trees_parent.npy        # FlatOS arena columns (see FlatOS.pack_arena)
      trees_depth.npy
      trees_gds_node_id.npy
      trees_row_id.npy
      trees_weight.npy
      dg000_forward.npy       # CSR data graph, three arrays per FK adjacency
      dg000_backward_indptr.npy
      dg000_backward_indices.npy
      ...
      idx_tokens.npy          # inverted index: sorted tokens + CSR postings
      idx_indptr.npy
      idx_table_ids.npy
      idx_row_ids.npy
      store_<table>.npy       # per-table global-importance arrays

``manifest.json`` carries the format version, the engine fingerprint and
store digest (see :mod:`repro.persist.fingerprint`), the l-values the
trees were generated for (``null`` = complete OSs, valid for every l),
the subject list aligned with ``trees_indptr``, and a SHA-256 checksum
per file.  :func:`write_snapshot` writes everything into a temporary
sibling directory and renames it into place, so readers never observe a
half-written snapshot.

:class:`Snapshot` opens the arenas with ``np.load(..., mmap_mode="r")``:
attach cost is checksum verification plus page-table setup, and a
:class:`~repro.core.os_tree.FlatOS` served from the snapshot is a set of
zero-copy slices into the mapped arena.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.os_tree import FlatOS
from repro.datagraph.graph import DataGraph, FkAdjacency
from repro.errors import SnapshotFormatError, SnapshotMismatchError
from repro.persist.fingerprint import engine_fingerprint, store_digest
from repro.ranking.store import ImportanceStore
from repro.reliability import inject
from repro.search.inverted_index import ArrayInvertedIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import SizeLEngine
    from repro.db.database import Database
    from repro.schema_graph.gds import GDS

#: Bump on any incompatible layout change; readers reject other versions.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

_TREE_FILES = {name: f"trees_{name}.npy" for name in ("indptr",) + FlatOS.ARENA_FIELDS}


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _save(directory: Path, name: str, array: np.ndarray) -> None:
    np.save(directory / name, np.ascontiguousarray(array), allow_pickle=False)


def _manifest_checksum(manifest: dict) -> str:
    """SHA-256 of the manifest's canonical JSON, self-checksum excluded."""
    body = {k: v for k, v in manifest.items() if k != "manifest_checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def ensure_absent_or_overwrite(path: Path, overwrite: bool) -> None:
    """Reject writing over an existing snapshot unless *overwrite* is set.

    Shared by :func:`write_snapshot` and the precompute pipeline's
    fail-fast pre-check, so the two sites cannot drift.
    """
    if path.exists() and not overwrite:
        raise SnapshotFormatError(
            f"snapshot path already exists: {path} "
            f"(pass overwrite=True / --overwrite to replace)"
        )


def ensure_snapshotable_index(index: object) -> None:
    """Reject engines whose search index cannot be packed into arrays."""
    if not hasattr(index, "to_arrays"):
        raise SnapshotFormatError(
            "engine's search index cannot be snapshotted (no to_arrays); "
            "was this engine itself built from a snapshot? Precompute "
            "from a freshly built engine instead"
        )


def write_snapshot(
    path: str | Path,
    engine: "SizeLEngine",
    subjects: list[tuple[str, int]],
    trees: list[FlatOS],
    *,
    l_values: list[int] | None = None,
    overwrite: bool = False,
) -> Path:
    """Write a snapshot of *engine*'s derived structures to *path*.

    *subjects* and *trees* are parallel: ``trees[i]`` is the complete
    columnar OS of ``subjects[i]`` (an ``(rds_table, row_id)`` pair).
    *l_values* records which summary sizes the trees were generated to
    serve — ``None`` means complete OSs, valid for every ``l`` (the
    normal case; a future depth-limited precompute would restrict it).

    The write is atomic: everything lands in a ``<path>.tmp-<pid>``
    sibling first, which is renamed into place only after the manifest
    (the last file written) is complete.  With ``overwrite=True`` an
    existing snapshot at *path* is replaced.
    """
    path = Path(path)
    if len(subjects) != len(trees):
        raise ValueError("subjects and trees must be parallel lists")
    ensure_absent_or_overwrite(path, overwrite)
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        # FlatOS arena
        arena = FlatOS.pack_arena(trees)
        for name, filename in _TREE_FILES.items():
            _save(tmp, filename, arena[name])

        # CSR data graph
        datagraph_entries = []
        for i, adj in enumerate(engine.data_graph.adjacencies()):
            files = {
                "forward": f"dg{i:03d}_forward.npy",
                "backward_indptr": f"dg{i:03d}_backward_indptr.npy",
                "backward_indices": f"dg{i:03d}_backward_indices.npy",
            }
            for field, filename in files.items():
                _save(tmp, filename, getattr(adj, field))
            datagraph_entries.append(
                {"owner": adj.owner, "column": adj.column, "target": adj.target,
                 "files": files}
            )

        # Inverted index postings
        index = engine.searcher.index
        ensure_snapshotable_index(index)
        tokens, idx_indptr, table_ids, row_ids, index_tables = index.to_arrays()
        _save(tmp, "idx_tokens.npy", tokens)
        _save(tmp, "idx_indptr.npy", idx_indptr)
        _save(tmp, "idx_table_ids.npy", table_ids)
        _save(tmp, "idx_row_ids.npy", row_ids)

        # Importance arrays
        store_tables = sorted(engine.store.tables())
        for table in store_tables:
            _save(tmp, f"store_{table}.npy", engine.store.array(table))

        checksums = {
            f.name: _sha256_file(f) for f in sorted(tmp.iterdir())
        }
        manifest: dict = {
            "format_version": FORMAT_VERSION,
            "database": engine.db.name,
            "theta": engine.theta,
            "fingerprint": engine_fingerprint(
                engine.db, engine.gds_by_root, engine.theta
            ),
            "store_digest": store_digest(engine.store),
            "l_values": l_values,
            "subjects": [[table, int(row_id)] for table, row_id in subjects],
            "tree_nodes": int(arena["indptr"][-1]),
            "datagraph": datagraph_entries,
            "index": {
                "tables": index_tables,
                "files": {
                    "tokens": "idx_tokens.npy",
                    "indptr": "idx_indptr.npy",
                    "table_ids": "idx_table_ids.npy",
                    "row_ids": "idx_row_ids.npy",
                },
            },
            "store_tables": store_tables,
            "checksums": checksums,
        }
        # The manifest protects the arenas, so it must protect itself too:
        # a flipped row id in "subjects" would silently serve the wrong
        # subject's tree.  The self-checksum covers the canonical dump of
        # every other field and is verified at open.
        manifest["manifest_checksum"] = _manifest_checksum(manifest)
        (tmp / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )

        if path.exists():  # overwrite=True: swap the old directory out
            # Directories cannot be exchanged atomically on portable
            # POSIX, so the swap leaves *path* absent for the instant
            # between the two renames.  The old snapshot is parked first
            # and restored if the swap-in fails, so a crash can strand a
            # '<path>.old-*' copy but never lose the only good snapshot.
            graveyard = path.parent / f"{path.name}.old-{os.getpid()}"
            if graveyard.exists():
                shutil.rmtree(graveyard)
            os.replace(path, graveyard)
            try:
                os.replace(tmp, path)
            except BaseException:
                os.replace(graveyard, path)  # put the old snapshot back
                raise
            shutil.rmtree(graveyard)
        else:
            os.replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


class Snapshot:
    """An opened snapshot directory: validated manifest + mmap'd arenas.

    Use :meth:`open`; the constructor assumes a parsed manifest.  All
    arrays are loaded with ``mmap_mode="r"`` — nothing is copied into
    memory until a consumer touches the pages, and
    :meth:`load_flat` hands out zero-copy :class:`FlatOS` slices.
    """

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = path
        self.manifest = manifest
        self.fingerprint: str = manifest["fingerprint"]
        self.l_values: list[int] | None = manifest["l_values"]
        #: subject -> arena tree index
        self.subjects: dict[tuple[str, int], int] = {
            (table, int(row_id)): i
            for i, (table, row_id) in enumerate(manifest["subjects"])
        }
        self._arena = {
            name: self._mmap(filename) for name, filename in _TREE_FILES.items()
        }
        self._data_graph: DataGraph | None = None
        self._index_arrays: tuple | None = None
        self._store: ImportanceStore | None = None

    # ------------------------------------------------------------------ #
    # Opening / validation
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: str | Path, *, verify: bool = True) -> "Snapshot":
        """Open and (by default) checksum-verify a snapshot directory.

        ``verify=True`` reads every file once to check its SHA-256 against
        the manifest — a corrupted or truncated arena fails *here*, with a
        clear error, instead of serving garbage trees later.  Skipping
        verification makes attach O(1) for snapshots on trusted storage.
        """
        inject("snapshot.open", SnapshotFormatError)
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise SnapshotFormatError(
                f"not a snapshot directory (no {MANIFEST_NAME}): {path}"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SnapshotFormatError(
                f"corrupt snapshot manifest {manifest_path}: {exc}"
            ) from None
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise SnapshotFormatError(
                f"unsupported snapshot format version {version!r} in {path} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        required = {"fingerprint", "store_digest", "subjects", "l_values",
                    "datagraph", "index", "store_tables", "checksums",
                    "manifest_checksum"}
        missing = required - set(manifest)
        if missing:
            raise SnapshotFormatError(
                f"snapshot manifest {manifest_path} is missing fields: "
                f"{sorted(missing)}"
            )
        if manifest["manifest_checksum"] != _manifest_checksum(manifest):
            raise SnapshotFormatError(
                f"snapshot manifest {manifest_path} failed its self-checksum "
                f"(corrupted or hand-edited manifest); re-run precompute"
            )
        if verify:
            # The checksums map covers every arena file (the manifest is
            # written after it is computed and protects itself via
            # manifest_checksum above).
            for filename, expected in manifest["checksums"].items():
                inject("snapshot.checksum", SnapshotFormatError)
                file_path = path / filename
                if not file_path.is_file():
                    raise SnapshotFormatError(
                        f"snapshot {path} is missing arena file {filename!r}"
                    )
                actual = _sha256_file(file_path)
                if actual != expected:
                    raise SnapshotFormatError(
                        f"snapshot checksum mismatch for {filename!r} in {path}: "
                        f"expected {expected[:12]}..., got {actual[:12]}... "
                        f"(corrupted or partially written snapshot)"
                    )
        return cls(path, manifest)

    def validate_dataset(
        self, db: "Database", pruned_gds_by_root: dict[str, "GDS"], theta: float
    ) -> None:
        """Reject a (database, pruned G_DS set, θ) this snapshot is not for.

        The engine-free half of :meth:`validate_engine`: the builder runs
        it *before* constructing an engine from the snapshot's store/data
        graph/index, so a cross-dataset snapshot fails with this clear
        error instead of whatever the foreign structures break first.
        """
        actual = engine_fingerprint(db, pruned_gds_by_root, theta)
        if actual != self.fingerprint:
            raise SnapshotMismatchError(
                f"snapshot {self.path} does not match this engine: dataset/"
                f"G_DS fingerprint {actual[:12]}... != snapshot "
                f"{self.fingerprint[:12]}... (different data, schema, G_DS "
                f"structure, or theta); re-run precompute for this engine"
            )

    def validate_engine(self, engine: "SizeLEngine") -> None:
        """Reject attachment to an engine this snapshot does not belong to.

        Recomputes the engine's fingerprint (schema + contents + pruned
        G_DS + θ) and compares it with the manifest's; an engine carrying
        its own importance store is additionally checked against the store
        digest (a store loaded *from* this snapshot is consistent by
        construction).  Raises :class:`SnapshotMismatchError` naming what
        differed.

        Deliberately *not* memoised per engine: the database may legally
        grow between attachments (``Table.insert``), and a re-attach must
        notice.  Re-validation is cheap anyway — the row-content hashes
        are cached on the append-only tables, so an unchanged database
        revalidates in O(schema + G_DS) time.
        """
        self.validate_dataset(engine.db, engine.gds_by_root, engine.theta)
        if self._store is None or engine.store is not self._store:
            actual_store = store_digest(engine.store)
            if actual_store != self.manifest["store_digest"]:
                raise SnapshotMismatchError(
                    f"snapshot {self.path} was precomputed under a different "
                    f"importance store (digest {actual_store[:12]}... != "
                    f"snapshot {self.manifest['store_digest'][:12]}...); its "
                    f"tree weights would be stale — re-run precompute or "
                    f"load the store from the snapshot"
                )

    # ------------------------------------------------------------------ #
    # Arena access
    # ------------------------------------------------------------------ #
    def _mmap(self, filename: str) -> np.ndarray:
        file_path = self.path / filename
        if not file_path.is_file():
            raise SnapshotFormatError(
                f"snapshot {self.path} is missing arena file {filename!r}"
            )
        try:
            return np.load(file_path, mmap_mode="r", allow_pickle=False)
        except (ValueError, EOFError, OSError) as exc:
            # EOFError: zero-byte/truncated .npy (reachable with
            # verify=False); OSError: unreadable file.  All must surface
            # as the typed format error the CLI maps to exit 2.
            raise SnapshotFormatError(
                f"unreadable snapshot arena {file_path}: {exc}"
            ) from None

    def __contains__(self, subject: tuple[str, int]) -> bool:
        return subject in self.subjects

    def __len__(self) -> int:
        return len(self.subjects)

    def load_flat(
        self,
        rds_table: str,
        row_id: int,
        gds: "GDS",
        db: "Database | None" = None,
    ) -> FlatOS | None:
        """The precomputed complete OS of a subject, or ``None`` if absent.

        Zero-copy: the returned :class:`FlatOS` columns are read-only
        slices of the memory-mapped arena.  *gds* must be the attaching
        engine's pruned G_DS for *rds_table* — guaranteed compatible by
        :meth:`validate_engine`.
        """
        index = self.subjects.get((rds_table, int(row_id)))
        if index is None:
            return None
        return FlatOS.from_arena(self._arena, index, gds, db=db, kind="complete")

    def data_graph(self) -> DataGraph:
        """The snapshotted CSR data graph (memory-mapped, built once)."""
        if self._data_graph is None:
            adjacencies: dict[tuple[str, str], FkAdjacency] = {}
            for entry in self.manifest["datagraph"]:
                adjacencies[(entry["owner"], entry["column"])] = FkAdjacency(
                    owner=entry["owner"],
                    column=entry["column"],
                    target=entry["target"],
                    forward=self._mmap(entry["files"]["forward"]),
                    backward_indptr=self._mmap(entry["files"]["backward_indptr"]),
                    backward_indices=self._mmap(entry["files"]["backward_indices"]),
                )
            self._data_graph = DataGraph(adjacencies)
        return self._data_graph

    def search_index(self, db: "Database") -> ArrayInvertedIndex:
        """The snapshotted inverted index as a zero-build array index."""
        if self._index_arrays is None:
            files = self.manifest["index"]["files"]
            self._index_arrays = (
                self._mmap(files["tokens"]),
                self._mmap(files["indptr"]),
                self._mmap(files["table_ids"]),
                self._mmap(files["row_ids"]),
            )
        tokens, indptr, table_ids, row_ids = self._index_arrays
        return ArrayInvertedIndex(
            db, tokens, indptr, table_ids, row_ids,
            list(self.manifest["index"]["tables"]),
        )

    def store(self) -> ImportanceStore:
        """The snapshotted importance store (memory-mapped arrays).

        The returned object is cached: :meth:`validate_engine` recognises
        an engine holding *this* store and skips the digest comparison.
        """
        if self._store is None:
            self._store = ImportanceStore(
                {table: self._mmap(f"store_{table}.npy")
                 for table in self.manifest["store_tables"]}
            )
        return self._store

    def size_bytes(self) -> int:
        """Total on-disk footprint of the snapshot's files."""
        return sum(f.stat().st_size for f in self.path.iterdir() if f.is_file())

    def __repr__(self) -> str:
        return (
            f"Snapshot({str(self.path)!r}, subjects={len(self.subjects)}, "
            f"nodes={self.manifest.get('tree_nodes', '?')})"
        )
