"""The offline OS precompute pipeline (``repro precompute``).

Selects Data Subjects, generates their complete columnar OSs through the
engine's flat hot path, one subject after another (precompute runs
offline), and writes a :mod:`repro.persist.snapshot` directory.

Subject selection supports the three production shapes:

* **by table** — every row of one R_DS table (full precompute);
* **explicit ids** — an operator-provided list (targeted refresh);
* **top-K keyword frequency** — the subjects the most frequent index
  tokens resolve to, best first (warm the cache for the head of the
  query distribution without paying for the tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.errors import PersistError
from repro.persist.snapshot import (
    Snapshot,
    ensure_absent_or_overwrite,
    ensure_snapshotable_index,
    write_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import SizeLEngine


@dataclass(frozen=True)
class PrecomputeReport:
    """What one precompute run produced (the CLI prints this)."""

    path: Path
    subjects: int
    tree_nodes: int
    size_bytes: int
    seconds: float


def select_subjects(
    engine: "SizeLEngine",
    *,
    table: str | None = None,
    row_ids: Sequence[int] | None = None,
    top_keywords: int | None = None,
) -> list[tuple[str, int]]:
    """Resolve one selector into an ``(rds_table, row_id)`` subject list.

    Exactly one selection shape must be given — ``table=`` (optionally
    scoped by ``row_ids=``) or ``top_keywords=``.  Subjects always belong
    to R_DS tables (tables with a registered G_DS) — only those have OSs
    to precompute.
    """
    if top_keywords is not None and (table is not None or row_ids is not None):
        raise PersistError(
            "top_keywords is mutually exclusive with table=/row_ids="
        )
    if row_ids is not None and table is None:
        raise PersistError("row_ids requires table= to scope them")
    if table is not None:
        engine.gds_for(table)  # raises for non-R_DS tables
        n_rows = len(engine.db.table(table))
        if row_ids is not None:
            bad = [row_id for row_id in row_ids if not 0 <= int(row_id) < n_rows]
            if bad:
                raise PersistError(
                    f"row ids out of range for table {table!r} "
                    f"(0..{n_rows - 1}): {bad}"
                )
            # Order-preserving dedupe: a repeated id must not generate and
            # pack the same tree twice (nor inflate the report).
            return [
                (table, row_id) for row_id in dict.fromkeys(int(r) for r in row_ids)
            ]
        return [(table, row_id) for row_id in range(n_rows)]
    if top_keywords is None:
        raise PersistError(
            "pick a subject selector: table= (optionally with row_ids=) "
            "or top_keywords="
        )
    if top_keywords < 1:
        raise PersistError(f"top_keywords must be >= 1, got {top_keywords}")
    index = engine.searcher.index
    if not hasattr(index, "token_frequencies"):
        raise PersistError(
            "top-K keyword selection needs the in-memory inverted index; "
            "this engine serves its index from a snapshot"
        )
    subjects: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    for token, _count in index.token_frequencies():
        for posting in sorted(
            index.lookup(token), key=lambda p: (p.table, p.row_id)
        ):
            subject = (posting.table, posting.row_id)
            if subject in seen:
                continue
            seen.add(subject)
            subjects.append(subject)
            if len(subjects) >= top_keywords:
                return subjects
    return subjects


def precompute_snapshot(
    engine: "SizeLEngine",
    subjects: Sequence[tuple[str, int]],
    out_path: str | Path,
    *,
    overwrite: bool = False,
) -> PrecomputeReport:
    """Generate complete FlatOS trees for *subjects* and snapshot them.

    The trees are always *complete* OSs, so the snapshot serves every
    summary size (its manifest records ``l_values: null``; the manifest
    field exists for a future depth-limited precompute, and the cache
    disk tier refuses to serve snapshots that restrict it).

    The trees are generated straight from the engine, not through a
    cache, so precompute never holds every tree twice.  The write is
    atomic (temp dir + rename); an existing snapshot is only replaced
    with ``overwrite=True``.

    Peak memory is ~2x the final arena size (all generated trees plus
    the packed copy); a streaming per-tree writer would cap it at 1x and
    is the natural extension if table-scale precomputes outgrow RAM.
    """
    subjects = [(table, int(row_id)) for table, row_id in subjects]
    if not subjects:
        raise PersistError("no subjects selected; nothing to precompute")
    # Both guards re-run inside write_snapshot; checked up front so a
    # forgotten --overwrite or an unsnapshottable engine fails before the
    # generation run, not after paying for every tree.
    ensure_absent_or_overwrite(Path(out_path), overwrite)
    ensure_snapshotable_index(engine.searcher.index)
    start = perf_counter()
    trees = [engine.complete_os_flat(table, row_id) for table, row_id in subjects]
    path = write_snapshot(out_path, engine, list(subjects), trees, overwrite=overwrite)
    snapshot = Snapshot.open(path, verify=False)
    return PrecomputeReport(
        path=path,
        subjects=len(subjects),
        tree_nodes=int(snapshot.manifest["tree_nodes"]),
        size_bytes=snapshot.size_bytes(),
        seconds=perf_counter() - start,
    )
