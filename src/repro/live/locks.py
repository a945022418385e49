"""Reader-writer coordination between queries and mutation commits.

Queries (OS generation, keyword search) read the delta-overlaid derived
structures at many points; a mutation commit patches all of them.  The
:class:`ReadWriteLock` gives each side what it needs: any number of
concurrent readers, one writer at a time, and — critically — *atomic
visibility*: a reader entering before a commit sees the pre-mutation
state throughout, a reader entering after sees the post-mutation state,
and no reader ever observes a half-applied commit.  That is exactly the
"pre or post, never torn" guarantee the live hammer suite pins.

Both sides are re-entrant per thread (generation nests read sections;
the writer re-enters reads while re-evaluating watches), so the lock
tracks a per-thread read depth and lets the writing thread read freely.
Writers have strict preference: once a writer waits, no fresh reader
enters until it has committed.

Every engine builds its lock at construction, so a dataset's first-ever
commit waits for the reads already in flight exactly as every later one
does.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class ReadWriteLock:
    """Re-entrant many-readers / one-writer lock.

    A fresh reader is admitted only while no writer holds or waits for
    the lock (a thread that already holds a read — or the write — is
    admitted unconditionally, so nesting can never deadlock against a
    waiting writer).  A writer waits for exclusivity: no other writer,
    then no remaining readers.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: "int | None" = None
        self._write_depth = 0
        self._write_waiters = 0
        self._local = threading.local()

    def _read_depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @contextmanager
    def read(self) -> Iterator[None]:
        me = threading.get_ident()
        depth = self._read_depth()
        if depth or self._writer == me:
            # nested read, or the writer reading its own commit: free
            self._local.depth = depth + 1
            try:
                yield
            finally:
                self._local.depth -= 1
            return
        with self._cond:
            while self._writer is not None or self._write_waiters:
                self._cond.wait()
            self._readers += 1
        self._local.depth = 1
        try:
            yield
        finally:
            self._local.depth = 0
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Exclusive section; claimed only once every reader has drained.

        Strict writer preference: from the moment a writer waits, fresh
        readers on other threads wait until it has committed, so
        sustained read load cannot starve the write path.  Only a thread
        that already holds a read re-enters while the writer waits.  A
        reader must therefore never wait for another thread that has
        yet to take its first read: that thread would queue behind the
        writer, which queues behind the reader.  The one such wait is a
        :class:`~repro.core.cache.SummaryCache` single-flight, and the
        cache takes its read before joining a flight, so every flight
        leader already holds one.
        """
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
            else:
                # if this thread itself holds a read it contributed one
                # unit to the reader count — discount it
                mine = 1 if self._read_depth() else 0
                self._write_waiters += 1
                try:
                    while self._writer is not None or self._readers - mine > 0:
                        self._cond.wait()
                finally:
                    self._write_waiters -= 1
                self._writer = me
                self._write_depth = 1
        try:
            yield
        finally:
            with self._cond:
                self._write_depth -= 1
                if self._write_depth == 0:
                    self._writer = None
                    self._cond.notify_all()
