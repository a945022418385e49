"""Per-layer metrics from a traced window's client records and server spans.

Server spans come from ``traced_serve.py``; client records from the load
generator.  They join on the request id.  A span's *self* time is its
duration minus the part of it that its children cover; a router span's
children include the hop spans carrying its request id, which run on the
router's scatter threads.

Unless a metric's name says otherwise, a layer's time and work counts
are totals over the window divided by the completed read ops, so a layer
that runs on only some requests (a cache miss, a snapshot load) shows
its cost per request served.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from loadgen import OpRecord

NAME, SPAN, PARENT, RID, START, END, COUNTS = range(7)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    spans: list[list[Any]],
    records: list[OpRecord],
    cache_delta: dict[str, int],
) -> dict[str, float]:
    """The traced window's per-layer metrics (see README for each one)."""
    reads = {r.request_id: r for r in records if r.kind == "read" and r.status == 200}
    writes = {r.request_id for r in records if r.kind == "write" and r.status == 200}
    window = [s for s in spans if s[RID] in reads or s[RID] in writes]
    children: dict[int, list[list[Any]]] = defaultdict(list)
    by_name: dict[str, list[list[Any]]] = defaultdict(list)
    hops: dict[str, list[list[Any]]] = defaultdict(list)
    for s in window:
        children[s[PARENT]].append(s)
        by_name[s[NAME]].append(s)
        if s[NAME] == "hop":
            hops[s[RID]].append(s)

    def self_ns(s: list[Any]) -> int:
        kids = children[s[SPAN]] + (hops[s[RID]] if s[NAME] == "router" else [])
        return s[END] - s[START] - _covered([(k[START], k[END]) for k in kids], s[START], s[END])

    def read_spans(name: str) -> list[list[Any]]:
        return [s for s in by_name[name] if s[RID] in reads]

    n = max(1, len(reads))

    def per_op_ms(name: str, self_time: bool = False) -> float:
        spans_ = read_spans(name)
        total = sum(self_ns(s) if self_time else s[END] - s[START] for s in spans_)
        return total / 1e6 / n

    def per_op_count(name: str, key: str) -> float:
        return sum(s[COUNTS][key] for s in read_spans(name) if s[COUNTS]) / n

    handles = {s[RID]: s for s in read_spans("handle")}
    residual = [
        (r.end_ns - r.start_ns - (handles[rid][END] - handles[rid][START])) / 1e6
        for rid, r in reads.items()
        if rid in handles
    ]
    selects = [s for name, group in by_name.items() if name.startswith("select.") for s in group]
    commits = [s for s in by_name["live.commit"] if s[RID] in writes]
    hop_spans = read_spans("hop")
    requests = cache_delta.get("hits", 0) + cache_delta.get("misses", 0) + cache_delta.get(
        "single_flight_waits", 0
    )
    renders = read_spans("render")
    loads = read_spans("snapshot.load")
    waits = read_spans("live.read_wait")
    return {
        "http.residual_ms": _mean(residual),
        "http.response_kb": _mean([r.nbytes / 1024 for r in reads.values()]),
        "middleware.self_us": per_op_ms("handle", self_time=True) * 1000,
        "protocol.decode_us": per_op_ms("decode") * 1000,
        "protocol.encode_us": per_op_ms("encode") * 1000,
        "dispatch.self_us": per_op_ms("dispatch", self_time=True) * 1000,
        "search.us": per_op_ms("search") * 1000,
        "search.matches_per_op": per_op_count("search", "matches"),
        "cache.hit_rate": (
            (cache_delta.get("hits", 0) + cache_delta.get("single_flight_waits", 0))
            / max(1, requests)
        ),
        "cache.computations_per_op": cache_delta.get("result_computations", 0) / n,
        "cache.evictions_per_op": cache_delta.get("evictions", 0) / n,
        "cache.disk_hits_per_op": cache_delta.get("disk_hits", 0) / n,
        "cache.run_self_us": per_op_ms("cache.run", self_time=True) * 1000,
        "engine.run_ms": per_op_ms("engine.run"),
        "prelim.ms": per_op_ms("prelim"),
        "prelim.nodes": per_op_count("prelim", "nodes"),
        "prelim.extracted_tuples": per_op_count("prelim", "extracted_tuples"),
        "prelim.avoid1_hits": per_op_count("prelim", "avoid1_hits"),
        "prelim.avoid2_hits": per_op_count("prelim", "avoid2_hits"),
        "generate.flat_ms": per_op_ms("generate.flat"),
        "generate.nodes": per_op_count("generate.flat", "nodes"),
        "snapshot.load_us": _mean([(s[END] - s[START]) / 1e3 for s in loads]),
        "select.dp_ms": per_op_ms("select.dp"),
        "select.top_path_ms": per_op_ms("select.top_path"),
        "select.input_nodes": sum(s[COUNTS]["nodes"] for s in selects if s[RID] in reads) / n,
        "render.us_per_result": _mean([(s[END] - s[START]) / 1e3 for s in renders]),
        "live.commit_ms": _mean([(s[END] - s[START]) / 1e6 for s in commits]),
        "live.dirty_per_commit": _mean([s[COUNTS]["dirty"] for s in commits if s[COUNTS]]),
        "live.read_wait_us": _mean([(s[END] - s[START]) / 1e3 for s in waits]),
        "live.overlay_size": float(
            max(commits, key=lambda s: s[END])[COUNTS]["overlay_size"] if commits else 0
        ),
        "router.self_us": per_op_ms("router", self_time=True) * 1000,
        "hop.ms": _mean([(s[END] - s[START]) / 1e6 for s in hop_spans]),
        "hop.per_op": len(hop_spans) / n,
        "hop.frame_kb": _mean([s[COUNTS]["frame_bytes"] / 1024 for s in hop_spans if s[COUNTS]]),
    }


def join_check(spans: list[list[Any]], records: list[OpRecord]) -> tuple[float, int]:
    """(share of client requests with a server ``handle`` span, spans that
    start before their client sent or end after it received)."""
    handles = {s[RID]: s for s in spans if s[NAME] == "handle"}
    joined = escaped = 0
    for r in records:
        s = handles.get(r.request_id)
        if s is None:
            continue
        joined += 1
        if s[START] < r.start_ns or s[END] > r.end_ns:
            escaped += 1
    return joined / max(1, len(records)), escaped
