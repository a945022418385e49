"""Prometheus-style serving metrics (``GET /v1/metrics``).

A :class:`MetricsRegistry` is a lock-protected set of per-endpoint/status
request counters, per-endpoint latency histograms (fixed buckets), and
named event counters (auth failures, throttles).  :meth:`render` emits
the text exposition format Prometheus scrapes, folding in the
per-dataset section of an aggregate ``/v1/stats`` body — the
dispatcher's own answer, so ``/v1/stats`` and ``/v1/metrics`` read one
record; on a cluster the router has already merged it across shards
(cache counters summed, ``dataset_version`` and ``watch_active`` the max).

The registry is always on: recording a request is two dict increments
under one lock, cheap enough that the disarmed middleware stack stays
within the benchmarked overhead gate (``benchmarks/bench_service.py``).
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

#: Histogram bucket upper bounds, seconds.  Spanning 1ms..10s covers a
#: warm cache hit (~100us rides the first bucket) through a cold
#: multi-generation scatter.
DURATION_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """Thread-safe counters + histograms with a Prometheus text renderer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (endpoint, status) -> count
        self._requests: dict[tuple[str, int], int] = {}
        #: endpoint -> (per-bucket cumulative-style raw counts, sum, count)
        self._buckets: dict[str, list[int]] = {}
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        #: free-form named event counters (auth failures, throttles, ...)
        self._events: dict[str, int] = {}

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one finished request."""
        with self._lock:
            key = (endpoint, int(status))
            self._requests[key] = self._requests.get(key, 0) + 1
            buckets = self._buckets.get(endpoint)
            if buckets is None:
                buckets = self._buckets[endpoint] = [0] * (len(DURATION_BUCKETS) + 1)
                self._sums[endpoint] = 0.0
                self._counts[endpoint] = 0
            for i, bound in enumerate(DURATION_BUCKETS):
                if seconds <= bound:
                    buckets[i] += 1
                    break
            else:
                buckets[-1] += 1
            self._sums[endpoint] += seconds
            self._counts[endpoint] += 1

    def inc(self, event: str, amount: int = 1) -> None:
        """Bump a named event counter (rendered as its own metric)."""
        with self._lock:
            self._events[event] = self._events.get(event, 0) + amount

    def snapshot(self) -> dict[str, object]:
        """The raw counters (tests and JSON consumers)."""
        with self._lock:
            return {
                "requests": dict(self._requests),
                "events": dict(self._events),
                "counts": dict(self._counts),
            }

    def render(self, datasets: "Mapping[str, Any] | None" = None) -> str:
        """The Prometheus text exposition of everything this registry saw.

        *datasets* is an aggregate ``/v1/stats`` body.  Each entry holding
        a ``cache`` mapping yields a ``repro_cache_<counter>{dataset=...}``
        sample per counter, ``repro_dataset_version{dataset=...}``
        (committed-transaction count) and ``repro_watch_active{dataset=...}``
        (registered continual queries).  Every other entry is skipped: an
        unbuilt dataset's metadata, the router's ``cluster`` section and
        its ``degraded``/``missing_shards`` markers.
        """
        with self._lock:
            requests = dict(self._requests)
            buckets = {k: list(v) for k, v in self._buckets.items()}
            sums = dict(self._sums)
            counts = dict(self._counts)
            events = dict(self._events)
        lines: list[str] = []
        lines.append(
            "# HELP repro_requests_total Requests handled, by endpoint and status."
        )
        lines.append("# TYPE repro_requests_total counter")
        for (endpoint, status), count in sorted(requests.items()):
            lines.append(
                f'repro_requests_total{{endpoint="{_escape_label(endpoint)}",'
                f'status="{status}"}} {count}'
            )
        lines.append(
            "# HELP repro_request_duration_seconds Request latency, by endpoint."
        )
        lines.append("# TYPE repro_request_duration_seconds histogram")
        for endpoint in sorted(buckets):
            label = _escape_label(endpoint)
            cumulative = 0
            for bound, raw in zip(DURATION_BUCKETS, buckets[endpoint]):
                cumulative += raw
                lines.append(
                    f'repro_request_duration_seconds_bucket{{endpoint="{label}",'
                    f'le="{bound}"}} {cumulative}'
                )
            cumulative += buckets[endpoint][-1]
            lines.append(
                f'repro_request_duration_seconds_bucket{{endpoint="{label}",'
                f'le="+Inf"}} {cumulative}'
            )
            lines.append(
                f'repro_request_duration_seconds_sum{{endpoint="{label}"}} '
                f"{sums[endpoint]:.6f}"
            )
            lines.append(
                f'repro_request_duration_seconds_count{{endpoint="{label}"}} '
                f"{counts[endpoint]}"
            )
        for event in sorted(events):
            lines.append(f"# TYPE {event} counter")
            lines.append(f"{event} {events[event]}")
        built = {
            name: info
            for name, info in (datasets or {}).items()
            if isinstance(info, Mapping) and isinstance(info.get("cache"), Mapping)
        }
        if built:
            names = sorted(built)
            counters = list(built[names[0]]["cache"])
            lines.append(
                "# HELP repro_cache Summary-cache counters, by dataset "
                "(merged across shards)."
            )
            for counter in counters:
                lines.append(f"# TYPE repro_cache_{counter} counter")
                for name in names:
                    lines.append(
                        f'repro_cache_{counter}{{dataset="{_escape_label(name)}"}} '
                        f"{built[name]['cache'][counter]}"
                    )
            for gauge, description in (
                (
                    "dataset_version",
                    "Committed-transaction count per dataset "
                    "(0 = as built; max over shards).",
                ),
                ("watch_active", "Registered continual queries per dataset."),
            ):
                lines.append(f"# HELP repro_{gauge} {description}")
                lines.append(f"# TYPE repro_{gauge} gauge")
                for name in names:
                    lines.append(
                        f'repro_{gauge}{{dataset="{_escape_label(name)}"}} '
                        f"{built[name].get(gauge, 0)}"
                    )
        return "\n".join(lines) + "\n"
