"""End-to-end request deadlines: one budget, checked at every tier.

A :class:`Deadline` pins the instant a request's time budget expires
(monotonic clock).  The service dispatcher installs the request's
deadline in a **thread-local scope** (:func:`deadline_scope`) around the
whole dispatch; long-running loops below it — OS generation, selection
kernels, backend IO — call the module-level :func:`check_deadline`,
which is a cheap no-op when no deadline is active and raises the pinned
:class:`~repro.errors.DeadlineExceededError` (HTTP 504) once the budget
is gone.

The scope is thread-local: every :class:`~repro.session.Session` call
runs serially on the request's own thread, so the scope the dispatcher
installs covers all the work below it.

Checkpoint placement is coarse by design — every ~256 iterations of an
outer per-node loop, every generation level, every counted IO — so an
unarmed request pays nanoseconds and an armed one is cancelled within a
few hundred microseconds of its budget, without regressing the measured
kernel benchmarks.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import DeadlineExceededError

#: How often (iterations) tight loops consult :func:`check_deadline`.
#: Exposed so kernels share one constant: ``if i & CHECK_MASK == 0: ...``.
CHECK_MASK = 255


class Deadline:
    """One request's time budget, pinned to the monotonic clock."""

    __slots__ = ("budget_ms", "expires_at")

    def __init__(self, budget_ms: int, *, now: "float | None" = None) -> None:
        self.budget_ms = int(budget_ms)
        start = time.monotonic() if now is None else now
        self.expires_at = start + self.budget_ms / 1000.0

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> int:
        """Whole milliseconds left, floored at 1 — the *forwardable* form
        (a 0 budget would be rejected by the wire validator)."""
        return max(int(self.remaining() * 1000), 1)

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        if time.monotonic() >= self.expires_at:
            raise DeadlineExceededError(self.budget_ms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget_ms={self.budget_ms}, remaining={self.remaining():.3f}s)"


_local = threading.local()


def current_deadline() -> "Deadline | None":
    """The deadline active on *this* thread, if any."""
    return getattr(_local, "deadline", None)


@contextmanager
def deadline_scope(deadline: "Deadline | None") -> Iterator["Deadline | None"]:
    """Install *deadline* for the dynamic extent of the block.

    ``None`` is a true no-op scope, so call sites need no conditional.
    Scopes nest: an inner scope (e.g. a worker honoring a forwarded
    remaining budget) shadows the outer one and restores it on exit.
    """
    if deadline is None:
        yield None
        return
    previous = getattr(_local, "deadline", None)
    _local.deadline = deadline
    try:
        yield deadline
    finally:
        _local.deadline = previous


def check_deadline() -> None:
    """Raise the pinned 504 error if this thread's deadline has expired.

    The disarmed cost is one thread-local read and a ``None`` test —
    cheap enough for coarse placement inside generation/selection loops.
    """
    deadline = getattr(_local, "deadline", None)
    if deadline is not None and time.monotonic() >= deadline.expires_at:
        raise DeadlineExceededError(deadline.budget_ms)
