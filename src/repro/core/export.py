"""Structured export of OSs and size-l results.

Downstream consumers (web front ends, DPA report generators) want machine-
readable summaries, not rendered text.  :func:`summary_to_dict` serialises
an :class:`~repro.core.os_tree.ObjectSummary` into plain dicts/lists (JSON-
safe), preserving the tree shape, tuple identities, weights, and — when the
database is attached — the displayed attribute values.

The export is intentionally one-way: an OS is derived data (re-generated
from the database in milliseconds), so no loader is provided; consumers
treat exports as immutable result documents.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.options import ResultStats
from repro.core.os_tree import ObjectSummary, OSNode, SizeLResult


def _node_to_dict(summary: ObjectSummary, node: OSNode) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "uid": node.uid,
        "label": node.label,
        "table": node.table,
        "row_id": node.row_id,
        "depth": node.depth,
        "weight": node.weight,
    }
    if summary.db is not None:
        table = summary.db.table(node.table)
        payload["pk"] = table.pk_of_row(node.row_id)
        payload["attributes"] = {
            attr: table.value(node.row_id, attr)
            for attr in node.gds.attributes
            if table.value(node.row_id, attr) is not None
        }
    payload["children"] = [_node_to_dict(summary, child) for child in node.children]
    return payload


def summary_to_dict(summary: ObjectSummary) -> dict[str, Any]:
    """Serialise an OS (complete, prelim, or size-l) into JSON-safe dicts."""
    return {
        "kind": summary.kind,
        "size": summary.size,
        "total_importance": summary.total_importance(),
        "root": _node_to_dict(summary, summary.root),
    }


def result_to_dict(result: SizeLResult) -> dict[str, Any]:
    """Serialise a :class:`SizeLResult` (summary + metadata).

    An engine result's :class:`ResultStats` flattens to its scalar fields,
    ``prelim`` (when set) and its counters; a bare algorithm result's
    counter dict passes through.  Non-JSON-safe entries (e.g. the nested
    ``PrelimStats`` object) are stringified rather than dropped, so
    nothing silently disappears.
    """
    raw = result.stats
    if isinstance(raw, ResultStats):
        flat = {key: getattr(raw, key) for key in ResultStats.FIELDS}
        if raw.prelim is not None:
            flat["prelim"] = raw.prelim
        raw = {**flat, **raw.counters}
    stats: dict[str, Any] = {}
    for key, value in raw.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            stats[key] = value
        else:
            stats[key] = repr(value)
    return {
        "algorithm": result.algorithm,
        "l": result.l,
        "importance": result.importance,
        "size": result.size,
        "selected_uids": sorted(result.selected_uids),
        "stats": stats,
        "summary": summary_to_dict(result.summary),
    }


def result_to_json(result: SizeLResult, indent: int | None = 2) -> str:
    """JSON string form of :func:`result_to_dict` (sorted keys, stable)."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)
