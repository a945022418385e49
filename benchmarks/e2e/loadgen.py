"""The load generator: raw HTTP/1.1 over persistent asyncio connections.

Single process, single thread, one event loop.  Each :class:`Connection`
is one keep-alive TCP connection to ``repro serve``; requests are written
as a single buffer and responses are parsed by hand (status line,
headers, ``Content-Length`` body), so nothing between the benchmark and
the server's socket adds buffering, pooling or retries of its own.

Two drivers share the connection type:

* :func:`closed_loop` sends the next request only after the previous
  response has fully arrived (one caller waiting on each reply);
* :func:`open_loop` sends on a fixed schedule regardless of replies, and
  times each request from when it was *due*, so a stall also charges the
  requests queued behind it; it records how late it ran.

Every request carries an ``X-Repro-Request-Id`` that the server echoes
and that joins client and server spans in a traced run.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

REQUEST_ID_HEADER = "X-Repro-Request-Id"


class HttpError(Exception):
    """The server's bytes do not parse as an HTTP/1.1 response."""


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body)


async def read_response(reader: asyncio.StreamReader) -> Response:
    """Read one HTTP/1.1 response; the body is framed by Content-Length.

    The status line, headers and body may arrive in any number of reads
    (the server writes headers and body as two separate segments).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        raise HttpError("connection closed before a complete response head") from exc
    lines = head[:-4].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not parts[1].isdigit():
        raise HttpError(f"bad status line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(f"bad Content-Length {headers['content-length']!r}") from None
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise HttpError("connection closed mid-body") from exc
    return Response(int(parts[1]), headers, body)


class Connection:
    """One persistent HTTP/1.1 connection (requests strictly in sequence)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, host: str
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.host = host

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, f"{host}:{port}")

    async def request(
        self,
        method: str,
        path: str,
        payload: "bytes | None" = None,
        request_id: "str | None" = None,
    ) -> Response:
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}"]
        if payload is not None:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(payload)}")
        if request_id is not None:
            head.append(f"{REQUEST_ID_HEADER}: {request_id}")
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + (payload or b""))
        await self.writer.drain()
        return await read_response(self.reader)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


@dataclass(frozen=True)
class Op:
    """One request of a workload stream."""

    kind: str  # "read" or "write"
    path: str
    payload: bytes
    #: identifies the request's answer for verification (None: not verified)
    key: "tuple | None" = None


@dataclass
class OpRecord:
    """What the generator saw for one op (times are CLOCK_MONOTONIC ns)."""

    op: Op
    request_id: str
    due_ns: int
    start_ns: int
    end_ns: int
    status: int
    nbytes: int

    @property
    def kind(self) -> str:
        return self.op.kind


@dataclass
class Recorder:
    """Per-window op records plus the first body seen for each request key."""

    prefix: str
    records: list[OpRecord] = field(default_factory=list)
    bodies: dict[tuple, bytes] = field(default_factory=dict)
    errors: int = 0
    #: called after every completed read op
    on_read: "Callable[[], None] | None" = None
    sent: int = 0

    def next_id(self) -> str:
        self.sent += 1
        return f"{self.prefix}-{self.sent}"

    def add(self, op: Op, request_id: str, due: int, start: int, response: Response) -> None:
        self.records.append(
            OpRecord(
                op, request_id, due, start, time.monotonic_ns(),
                response.status, len(response.body),
            )
        )
        if op.key is not None and op.key not in self.bodies and response.status == 200:
            self.bodies[op.key] = response.body
        if op.kind == "read" and self.on_read is not None:
            self.on_read()


async def _send(conn: Connection, op: Op, recorder: Recorder, due: int) -> "Response | None":
    request_id = recorder.next_id()
    start = time.monotonic_ns()
    try:
        response = await conn.request("POST", op.path, op.payload, request_id)
    except (OSError, HttpError):
        recorder.errors += 1
        return None
    recorder.add(op, request_id, due, start, response)
    return response


async def closed_loop(
    conn: Connection, ops: Iterator[Op], recorder: Recorder, until_ns: int
) -> None:
    """Send ops back to back until the deadline (the op in flight finishes)."""
    while time.monotonic_ns() < until_ns:
        now = time.monotonic_ns()
        if await _send(conn, next(ops), recorder, now) is None:
            return  # the connection is gone; the error is counted


async def open_loop(
    conn: Connection,
    ops: Iterator[Op],
    recorder: Recorder,
    rate: float,
    start_ns: int,
    until_ns: int,
) -> None:
    """Send one op every ``1/rate`` s from ``start_ns``; late ops go at once."""
    interval = int(1e9 / rate)
    due = start_ns
    while due < until_ns:
        delay = (due - time.monotonic_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        if await _send(conn, next(ops), recorder, due) is None:
            return
        due += interval
