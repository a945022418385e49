"""Cluster bootstrap: specs in, a serving router out.

:class:`Cluster` is the one object ``repro serve --shards N`` (and the
cluster benchmark, and the e2e tests) constructs: it fans one dataset
recipe list out into N :class:`~repro.cluster.worker.WorkerSpec`\\ s —
every worker hosts every dataset; the :class:`~repro.cluster.hashring`
ring decides which worker's *cache* owns which subject — starts the
:class:`~repro.cluster.supervisor.Supervisor`, and wraps it in a
:class:`~repro.cluster.router.ClusterRouter` that plugs into the HTTP
front end wherever a dispatcher is expected::

    with Cluster([DatasetSpec(name="dblp", database="dblp")], shards=4) as cluster:
        server = cluster.create_http_server(port=8077)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...

Shutdown order matters and :meth:`stop` owns it: stop accepting (the
caller closes its HTTP server first), drain the router's in-flight
scatters, then SIGTERM the workers so each drains its own socket loop.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import Supervisor
from repro.cluster.worker import DatasetSpec, WorkerSpec
from repro.errors import ClusterError
from repro.service.http import ServiceHTTPServer


class Cluster:
    """A worker pool plus its router, with one lifecycle."""

    def __init__(
        self,
        datasets: Sequence[DatasetSpec],
        shards: int,
        *,
        cache_size: int = 64,
        request_timeout: float = 30.0,
        startup_timeout: float = 120.0,
        health_interval: float = 0.5,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
        run_dir: "str | Path | None" = None,
        access_log: str = "",
    ) -> None:
        if shards < 1:
            raise ClusterError(f"a cluster needs at least one shard, got {shards}")
        if not datasets:
            raise ClusterError("a cluster needs at least one dataset")
        self.datasets = tuple(datasets)
        self.shards = shards
        self.request_timeout = request_timeout
        specs = [
            WorkerSpec(
                shard_index=index,
                shard_count=shards,
                datasets=self.datasets,
                ready_file="",  # the supervisor assigns a per-generation file
                cache_size=cache_size,
                # workers append hop lines (stamped with their shard) to the
                # same file the edge logs to; "" keeps hop logging off
                access_log=access_log,
            )
            for index in range(shards)
        ]
        self.supervisor = Supervisor(
            specs,
            startup_timeout=startup_timeout,
            health_interval=health_interval,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            run_dir=run_dir,
        )
        self.router: ClusterRouter | None = None

    def start(self) -> "Cluster":
        """Boot every worker (blocking until all are serviceable)."""
        self.supervisor.start()
        self.router = ClusterRouter(
            self.supervisor, request_timeout=self.request_timeout
        )
        return self

    def create_http_server(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        middleware: Any = None,
    ) -> ServiceHTTPServer:
        """An HTTP front end over the router (bind only, like
        :func:`repro.service.http.create_server`).  *middleware* is a
        :class:`~repro.service.middleware.MiddlewareConfig` or pre-built
        pipeline; the stack runs once, at this edge — never in workers."""
        if self.router is None:
            raise ClusterError("cluster is not started; call start() first")
        return ServiceHTTPServer(
            (host, port), self.router, verbose=verbose, middleware=middleware
        )

    def dispatch_safe(
        self, endpoint: str, payload: object = None
    ) -> tuple[int, dict[str, Any]]:
        """In-process dispatch through the router (tests, benchmarks)."""
        if self.router is None:
            raise ClusterError("cluster is not started; call start() first")
        return self.router.dispatch_safe(endpoint, payload)

    def stop(self, *, drain_timeout: float = 30.0) -> None:
        """Drain in-flight requests, then stop the workers (idempotent)."""
        router, self.router = self.router, None
        if router is not None:
            router.drain(drain_timeout)
            router.close()
        self.supervisor.stop()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
