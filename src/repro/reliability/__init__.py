"""Reliability primitives: fault injection, deadlines, circuit breaking.

Three small, dependency-free modules the serving tiers thread through:

* :mod:`~repro.reliability.faults` — a deterministic, seedable
  :class:`FaultPlan`/:class:`FaultInjector` behind named injection sites
  (``db.io``, ``snapshot.open``, ``snapshot.checksum``,
  ``transport.send``, ``transport.recv``, ``worker.startup``) that cost
  nothing while disarmed;
* :mod:`~repro.reliability.deadline` — per-request time budgets
  (``deadline_ms`` on the wire, ``X-Repro-Deadline-Ms`` over HTTP)
  carried through dispatcher → session pool → engine loops → backend IO
  as a thread-local :class:`Deadline`, raising the pinned
  :class:`~repro.errors.DeadlineExceededError` (504);
* :mod:`~repro.reliability.breaker` — the per-shard
  :class:`CircuitBreaker` the cluster router uses instead of blind
  sleep-retry against a dead worker.
"""

from repro.reliability.breaker import CircuitBreaker
from repro.reliability.deadline import (
    CHECK_MASK,
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.reliability.faults import (
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    FaultRule,
    active,
    inject,
    install,
    install_from_env,
    uninstall,
)

__all__ = [
    "CHECK_MASK",
    "CircuitBreaker",
    "Deadline",
    "FAULT_PLAN_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "inject",
    "install",
    "install_from_env",
    "uninstall",
]
