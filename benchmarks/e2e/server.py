"""Spawning, timing, sampling and stopping a ``repro serve`` process tree.

The server runs as a child in its own process group.  CPU and memory are
read from ``/proc`` for the whole tree (the router plus any shard
workers):

* CPU is the sum of ``/proc/<pid>/task/<tid>/schedstat``'s on-CPU
  nanoseconds over every thread.  ``utime+stime`` in ``/proc/<pid>/stat``
  is the same quantity in 10 ms clock ticks, too coarse to attribute to
  single requests that cost the server a few milliseconds each.
* Memory is the sum of ``VmHWM`` (peak resident set) over the tree.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        # the command name may contain spaces: fields resume after ')'
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def process_tree(root: int) -> list[int]:
    """*root* and every live descendant."""
    tree, frontier = [root], [root]
    while frontier:
        children = [child for pid in frontier for child in _children(pid)]
        tree.extend(children)
        frontier = children
    return tree


class CpuProbe:
    """Repeated reads of a process tree's on-CPU nanoseconds.

    The per-thread ``schedstat`` files are opened once, so a reading costs
    one ``pread`` per thread and can be taken between every two requests.
    Threads that start after the probe is opened are not seen, so it is
    opened after warm-up, when the serving threads exist.
    """

    def __init__(self, pids: list[int]) -> None:
        self._fds: list[int] = []
        for pid in pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    self._fds.append(os.open(f"/proc/{pid}/task/{tid}/schedstat", os.O_RDONLY))
                except OSError:
                    continue
        self._last = [0] * len(self._fds)

    def read(self) -> int:
        for i, fd in enumerate(self._fds):
            try:
                self._last[i] = int(os.pread(fd, 128, 0).split()[0])
            except (OSError, IndexError, ValueError):
                pass  # the thread exited: keep its last reading
        return sum(self._last)

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []


def hwm_kb(pids: list[int]) -> int:
    """Peak resident set (``VmHWM``, kB) summed over *pids*."""
    total = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def _exited(pid: int) -> bool:
    """Whether child *pid* has exited, leaving it unreaped."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


@dataclass
class SetupTiming:
    ready_s: float  # spawn -> ready file written (socket bound)
    first_answer_ms: float  # ready -> first 200 on the probe request

    @property
    def setup_s(self) -> float:
        return self.ready_s + self.first_answer_ms / 1000.0


class Server:
    """One ``repro serve`` process tree, from spawn to reaped.

    With *cpu* set, the whole tree runs on that CPU alone (see the README
    for why the benchmark pins).
    """

    def __init__(
        self, argv: list[str], env: dict[str, str], work_dir: Path, tag: str, cpu: "int | None"
    ) -> None:
        self.argv = argv
        self.env = env
        self.cpu = cpu
        self.ready_file = work_dir / f"{tag}.ready"
        self.stderr_path = work_dir / f"{tag}.stderr"
        self.process: "subprocess.Popen[bytes] | None" = None
        self.spawned_ns = 0
        self.ready_ns = 0
        self.url = ""

    def start(self, timeout: float = 120.0) -> None:
        """Spawn and wait for the ready file (the socket is bound)."""
        self.ready_file.unlink(missing_ok=True)
        self.spawned_ns = time.monotonic_ns()
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                self.argv + ["--ready-file", str(self.ready_file)],
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
            )
        if self.cpu is not None:
            # set right after spawn, long before the server starts any
            # shard worker, so the workers inherit it
            os.sched_setaffinity(self.process.pid, {self.cpu})
        deadline = self.spawned_ns + int(timeout * 1e9)
        while True:
            if self.ready_file.is_file():
                text = self.ready_file.read_text(encoding="utf-8")
                if text.endswith("\n"):
                    break
            if _exited(self.process.pid):
                raise RuntimeError(f"server exited before ready: {self.stderr_tail()}")
            if time.monotonic_ns() > deadline:
                raise RuntimeError(f"server not ready after {timeout}s: {self.stderr_tail()}")
            time.sleep(0.002)
        self.ready_ns = time.monotonic_ns()
        self.url = text.strip()

    @property
    def host_port(self) -> tuple[str, int]:
        host, port = self.url.removeprefix("http://").rsplit(":", 1)
        return host, int(port)

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            return self.stderr_path.read_text(encoding="utf-8", errors="replace")[-limit:]
        except OSError:
            return ""

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the group if it lingers."""
        process = self.process
        if process is None:
            return
        # wait WITHOUT reaping: while the leader is an unreaped zombie its
        # pid (and so the process-group id) cannot be reused, which makes
        # the group kill below safe
        if process.returncode is None and not _exited(process.pid):
            os.kill(process.pid, signal.SIGTERM)
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline and not _exited(process.pid):
                time.sleep(0.01)
        try:
            # a shard worker outliving its router, or a hung drain
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        self.process = None
