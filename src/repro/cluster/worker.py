"""The shard worker: a full serving stack behind a framed socket.

``python -m repro.cluster.worker '<spec json>'`` boots one worker
process: it builds (or snapshot-attaches) every dataset in its spec,
binds a loopback TCP port, writes a ready record, and then serves the
PR 5 wire protocol — each frame is ``{"id", "endpoint", "payload"}`` in
and ``{"id", "status", "body"}`` out, handled by an unmodified
:class:`~repro.service.dispatch.ServiceDispatcher`.  The process is the
isolation unit: its GIL, its heap, its cache partition; a crash here
takes down one shard's key range and nothing else.

Two cluster-internal endpoints exist only on this transport (they are
*fabric*, not public API, so they are deliberately not mounted on HTTP):

* ``cluster/ping`` — the supervisor's health probe: pinned cheap, no
  session work;
* ``cluster/matches`` — the front half of a keyword query (the ranked
  ``t_DS`` match list).  The router calls it once per ``/v1/query`` and
  then scatters the expensive per-subject OS work to each match's
  *owning* shard as ``/v1/batch`` requests.

Snapshots are attached read-only via ``mmap``, so N workers pointed at
one snapshot directory share its arenas through the page cache with
near-zero incremental RSS — the spec's ``snapshot`` field is how a
cluster distributes a precomputed dataset to every shard for free.

Shutdown: SIGTERM/SIGINT stop the accept loop, let in-flight frames
finish (connection threads notice within ``_IDLE_POLL_SECONDS``), close
every session, and exit 0.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ClusterError
from repro.cluster.transport import TransportError, recv_frame, send_frame
from repro.reliability import inject, install_from_env
from repro.reliability.deadline import deadline_scope
from repro.service.deployment import Deployment
from repro.service.dispatch import ServiceDispatcher, status_for
from repro.service.middleware.accesslog import AccessLog
from repro.service.middleware.context import RequestContext, context_scope
from repro.service.protocol import decode_query_request, encode_error, request_deadline

#: Cluster-internal endpoints (never mounted on the HTTP front end).
PING_ENDPOINT = "cluster/ping"
MATCHES_ENDPOINT = "cluster/matches"

#: How often an idle connection thread rechecks the shutdown flag.
_IDLE_POLL_SECONDS = 0.5


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset a worker hosts: the same recipe fields ``repro serve``
    resolves, serialized so a subprocess can rebuild it bit-identically."""

    name: str
    database: str
    seed: int = 7
    scale: float = 1.0
    snapshot: str | None = None
    verify: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "database": self.database,
            "seed": self.seed,
            "scale": self.scale,
            "snapshot": self.snapshot,
            "verify": self.verify,
        }


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, JSON-serializable (argv)."""

    shard_index: int
    shard_count: int
    datasets: tuple[DatasetSpec, ...]
    ready_file: str
    host: str = "127.0.0.1"
    port: int = 0
    cache_size: int = 64
    #: append-target for per-hop access-log lines ("" disables; a shared
    #: file is safe — lines are written atomically and stamped ``shard``)
    access_log: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "datasets": [spec.as_dict() for spec in self.datasets],
            "ready_file": self.ready_file,
            "host": self.host,
            "port": self.port,
            "cache_size": self.cache_size,
            "access_log": self.access_log,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WorkerSpec":
        try:
            datasets = tuple(
                DatasetSpec(**entry) for entry in payload["datasets"]
            )
            return cls(
                shard_index=payload["shard_index"],
                shard_count=payload["shard_count"],
                datasets=datasets,
                ready_file=payload["ready_file"],
                host=payload.get("host", "127.0.0.1"),
                port=payload.get("port", 0),
                cache_size=payload.get("cache_size", 64),
                access_log=payload.get("access_log", ""),
            )
        except (KeyError, TypeError) as exc:
            raise ClusterError(f"invalid worker spec: {exc}") from exc


def build_deployment(spec: WorkerSpec) -> Deployment:
    """The spec's datasets as one Deployment, every session built eagerly.

    Eager because "ready" must mean *serviceable*: the supervisor's ready
    handshake doubles as the restart-recovery clock, and a lazily built
    entry would bill the first unlucky request for the rebuild instead.
    """
    deployment = Deployment()
    for entry in spec.datasets:
        deployment.add(
            entry.name,
            named=entry.database,
            seed=entry.seed,
            scale=entry.scale,
            snapshot=entry.snapshot,
            verify=entry.verify,
            cache_size=spec.cache_size,
        )
        deployment.session(entry.name)
    return deployment


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One persistent connection: a loop of framed request/response pairs."""

    server: "WorkerServer"

    def handle(self) -> None:
        sock = self.request
        sock.settimeout(_IDLE_POLL_SECONDS)
        while not self.server.draining:
            try:
                message = recv_frame(sock)
            except socket.timeout:
                continue  # idle between frames: recheck the drain flag
            except TransportError:
                return  # mid-frame corruption/reset: drop the connection
            if message is None:
                return  # clean EOF
            # a frame has landed: answer it even if drain starts meanwhile
            sock.settimeout(None)
            try:
                send_frame(sock, self.server.handle_message(message))
            except TransportError:
                return
            sock.settimeout(_IDLE_POLL_SECONDS)


class WorkerServer(socketserver.ThreadingTCPServer):
    """The worker's socket server around one dispatcher."""

    allow_reuse_address = True
    daemon_threads = False
    block_on_close = True  # graceful: server_close() joins in-flight frames

    def __init__(self, spec: WorkerSpec, deployment: Deployment) -> None:
        super().__init__((spec.host, spec.port), _ConnectionHandler)
        self.spec = spec
        self.deployment = deployment
        self.dispatcher = ServiceDispatcher(deployment)
        self.draining = False
        self.access_log: "AccessLog | None" = None
        if spec.access_log:
            self.access_log = AccessLog(
                spec.access_log, extra={"shard": spec.shard_index}
            )

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def handle_message(self, message: dict[str, Any]) -> dict[str, Any]:
        endpoint = message.get("endpoint")
        payload = message.get("payload")
        if endpoint == PING_ENDPOINT:
            # health probes carry no edge context and are never hop-logged
            return {"id": message.get("id"), "status": 200, "body": self._ping()}
        # the frame's optional "ctx" field is the edge request's identity:
        # installing it thread-locally is what makes one request id span
        # the router→worker hop (from_wire tolerates absent/garbage ctx)
        ctx = RequestContext.from_wire(message.get("ctx"), endpoint=str(endpoint))
        with context_scope(ctx):
            if endpoint == MATCHES_ENDPOINT:
                status, body = self._matches_safe(payload)
            else:
                status, body = self.dispatcher.dispatch_safe(endpoint, payload)
            if self.access_log is not None:
                if isinstance(payload, dict) and isinstance(
                    payload.get("dataset"), str
                ):
                    ctx.dataset = payload["dataset"]
                self.access_log.write(ctx, str(endpoint), status)
        return {"id": message.get("id"), "status": status, "body": body}

    def _ping(self) -> dict[str, Any]:
        return {
            "ok": True,
            "shard": self.spec.shard_index,
            "shards": self.spec.shard_count,
            "pid": os.getpid(),
            "datasets": [entry.name for entry in self.spec.datasets],
        }

    def _matches_safe(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """The ranked match list of a keyword query (no OS work).

        Decodes the *full* ``/v1/query`` payload — so field validation,
        option validation, and unknown-dataset failures surface here with
        exactly the single-process status codes — but only runs the cheap
        search half.  Cursor staleness is the router's job: it pages the
        match list this response returns through
        :func:`~repro.service.dispatch.page_window`.
        """
        try:
            with deadline_scope(request_deadline(payload)):
                defaults = self.dispatcher._session_defaults(payload)
                request = decode_query_request(payload, defaults=defaults)
                session = self.deployment.session(request.dataset)
                matches = session.engine.search_matches(
                    list(request.keywords), request.options
                )
        except Exception as exc:  # noqa: BLE001 - errors become status bodies
            status = status_for(exc, MATCHES_ENDPOINT)
            return status, encode_error(exc, status)
        return 200, {
            "dataset": request.dataset,
            "keywords": list(request.keywords),
            "matches": [
                {
                    "table": match.table,
                    "row_id": match.row_id,
                    "importance": float(match.importance),
                }
                for match in matches
            ],
            "total": len(matches),
            "dataset_version": session.dataset_version,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def announce_ready(self) -> None:
        """Atomically publish the bound port for the supervisor to read."""
        ready = Path(self.spec.ready_file)
        record = json.dumps(
            {"port": self.port, "pid": os.getpid(), "shard": self.spec.shard_index}
        )
        tmp = ready.with_suffix(ready.suffix + ".tmp")
        tmp.write_text(record + "\n", encoding="utf-8")
        tmp.rename(ready)

    def drain_and_shutdown(self) -> None:
        """Stop accepting, let in-flight frames finish, release sessions."""
        self.draining = True
        self.shutdown()

    def server_close(self) -> None:
        super().server_close()
        if self.access_log is not None:
            self.access_log.close()


def run_worker(spec: WorkerSpec) -> int:
    """Build, bind, announce, serve — the whole worker lifecycle."""
    # chaos plans ride the environment so respawned generations stay armed
    install_from_env()
    inject("worker.startup", ClusterError)
    deployment = build_deployment(spec)
    server = WorkerServer(spec, deployment)

    def _terminate(signum: int, _frame: Any) -> None:
        # shutdown() blocks until the accept loop exits; hand it to a
        # helper thread — this handler runs *on* the serving main thread
        threading.Thread(target=server.drain_and_shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    server.announce_ready()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()  # joins connection threads (block_on_close)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.cluster.worker '<spec json>'", file=sys.stderr)
        return 2
    try:
        spec = WorkerSpec.from_dict(json.loads(argv[0]))
        return run_worker(spec)
    except ClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
