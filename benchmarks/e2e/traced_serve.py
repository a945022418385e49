"""``repro serve`` with each layer's public functions wrapped in timing spans.

    python benchmarks/e2e/traced_serve.py SPANS.json <repro CLI args...>

For example ``traced_serve.py spans.json --scale 1 serve --port 0``.  The
wrappers are installed from this file (the program under test is not
edited), then ``repro.cli.main`` runs the server as usual.  Each wrapped
call records one span::

    [name, span_id, parent_span_id, request_id, start_ns, end_ns, counts]

``parent_span_id`` is the enclosing span on the same thread (0 at the
top); ``request_id`` is the ``X-Repro-Request-Id`` the pipeline's
``handle`` received, inherited by nested spans, or the id a router hop
forwards to its worker; ``counts`` holds work counters read off the
call's arguments or result.  Times are CLOCK_MONOTONIC nanoseconds, the
clock the load generator uses, so client and server spans line up.

Spans stay in memory and are written to SPANS.json once the serve loop
returns, which SIGTERM causes.  Under ``--shards N`` only this (router)
process is wrapped: its spans cover the router and the hops, not the
workers' internals.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

SPANS: list[list[Any]] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()


def _stack() -> list[tuple[int, "str | None"]]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def traced(
    name: str,
    fn: Callable[..., Any],
    *,
    request_id: "Callable[[tuple, dict], str | None] | None" = None,
    counts: "Callable[[tuple, Any], dict[str, int]] | None" = None,
) -> Callable[..., Any]:
    """*fn* wrapped to record one span per call."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = _stack()
        parent, rid = stack[-1] if stack else (0, None)
        if request_id is not None:
            rid = request_id(args, kwargs) or rid
        span = next(_IDS)
        stack.append((span, rid))
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
        SPANS.append(
            [name, span, parent, rid, start, end, counts(args, result) if counts else None]
        )
        return result

    return wrapper


class _TimedGuard:
    """A session read guard whose ``read()`` records the wait to enter it."""

    def __init__(self, guard: Any) -> None:
        self._guard = guard

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        stack = _stack()
        parent, rid = stack[-1] if stack else (0, None)
        start = time.monotonic_ns()
        with self._guard.read():
            SPANS.append(["live.read_wait", next(_IDS), parent, rid, start, time.monotonic_ns(), None])
            yield


def install() -> None:
    """Wrap the public entry points of every layer on the request path."""
    from repro.cluster import router, transport
    from repro.core.cache import SummaryCache
    from repro.core.engine import SizeLEngine
    from repro.core.os_tree import SizeLResult
    from repro.core.registry import ALGORITHM_REGISTRY
    from repro.persist.snapshot import Snapshot
    from repro.service import dispatch
    from repro.service.middleware import pipeline
    from repro.session import Session

    def patch(owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        setattr(owner, attr, traced(name, getattr(owner, attr), **kwargs))

    patch(
        pipeline.MiddlewarePipeline, "handle", "handle",
        request_id=lambda args, kwargs: args[1].request_id,
    )
    patch(dispatch.ServiceDispatcher, "dispatch_safe", "dispatch")
    patch(router.ClusterRouter, "dispatch_safe", "router")
    patch(
        transport.WorkerClient, "request", "hop",
        request_id=lambda args, kwargs: (kwargs.get("ctx") or {}).get("request_id"),
        counts=lambda args, result: {"frame_bytes": len(json.dumps(result[1]))},
    )
    # the dispatcher calls the codecs through its own module globals
    for decoder in (
        "decode_query_request", "decode_size_l_request",
        "decode_batch_request", "decode_mutate_request",
    ):
        patch(dispatch, decoder, "decode")
    patch(dispatch, "encode_response", "encode")
    patch(
        SizeLEngine, "search_matches", "search",
        counts=lambda args, result: {"matches": len(result)},
    )
    patch(SummaryCache, "run", "cache.run")
    patch(SizeLEngine, "run", "engine.run")
    patch(
        SizeLEngine, "prelim_os", "prelim",
        counts=lambda args, result: {
            "nodes": result[0].size,
            "extracted_tuples": result[1].extracted_tuples,
            "avoid1_hits": result[1].avoided_subtrees,
            "avoid2_hits": result[1].limited_extractions,
        },
    )
    patch(
        SizeLEngine, "complete_os_flat", "generate.flat",
        counts=lambda args, result: {"nodes": result.size},
    )
    patch(Snapshot, "load_flat", "snapshot.load")
    patch(SizeLResult, "render", "render")
    patch(
        Session, "apply_mutations", "live.commit",
        counts=lambda args, result: {
            "dirty": len(result.dirty), "overlay_size": args[0].live.overlay_size,
        },
    )
    guard = Session.guard
    Session.guard = lambda self: _TimedGuard(guard(self))  # type: ignore[method-assign]
    # the registry is looked up per call, so re-registered wrappers are
    # what the engine and cache run (functools.wraps keeps supports_flat)
    for algorithm in ALGORITHM_REGISTRY.names():
        ALGORITHM_REGISTRY.register(
            algorithm,
            traced(
                f"select.{algorithm}", ALGORITHM_REGISTRY.get(algorithm),
                counts=lambda args, result: {"nodes": args[0].size},
            ),
            replace=True,
        )


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    install()
    from repro.cli import main as repro_main

    code = repro_main(argv[1:])
    out.write_text(json.dumps(SPANS), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
