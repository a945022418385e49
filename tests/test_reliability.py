"""The reliability tier, unit by unit: fault plans, deadlines, breakers,
supervisor backoff, and the dispatcher's 503/504 mapping.

Everything here runs in-process (no worker subprocesses — those live in
``test_chaos.py``); the single shared deployment is module-scoped.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.worker import DatasetSpec, WorkerSpec
from repro.cluster.supervisor import Supervisor, _Handle
from repro.errors import (
    BackendIOError,
    DeadlineExceededError,
    FaultInjectionError,
    ReproError,
    RequestValidationError,
    SnapshotFormatError,
)
from repro.persist import Snapshot
from repro.reliability import (
    FAULT_PLAN_ENV,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultPlan,
    FaultRule,
    active,
    check_deadline,
    current_deadline,
    deadline_scope,
    inject,
    install,
    install_from_env,
    uninstall,
)
from repro.service.deployment import Deployment
from repro.service.dispatch import ServiceDispatcher, status_for
from repro.service.protocol import (
    decode_query_request,
    encode_error,
    encode_request,
    QueryRequest,
    request_deadline,
)


@pytest.fixture(autouse=True)
def disarm_faults():
    """No test may leak an armed plan into the next (or into other files)."""
    yield
    uninstall()


# --------------------------------------------------------------------- #
# Fault plans and the injector
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_rule_validation(self) -> None:
        with pytest.raises(ReproError, match="site"):
            FaultRule(site="")
        with pytest.raises(ReproError, match="kind"):
            FaultRule(site="s", kind="explode")
        with pytest.raises(ReproError, match="probability"):
            FaultRule(site="s", probability=1.5)
        with pytest.raises(ReproError, match="delay_seconds"):
            FaultRule(site="s", kind="delay", delay_seconds=-1)
        with pytest.raises(ReproError, match="max_fires"):
            FaultRule(site="s", max_fires=0)
        with pytest.raises(ReproError, match="after"):
            FaultRule(site="s", after=-1)

    def test_plan_round_trips_through_json(self) -> None:
        plan = FaultPlan(
            rules=[
                FaultRule(site="db.io", probability=0.25, max_fires=3, after=2),
                FaultRule(site="transport.send", kind="delay", delay_seconds=0.01),
            ],
            seed=99,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_undecodable_plan_is_a_repro_error(self) -> None:
        with pytest.raises(ReproError, match="undecodable"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ReproError, match="rules must be a list"):
            FaultPlan.from_dict({"rules": 7})


class TestFaultInjector:
    def _sequence(self, seed: int, n: int = 200) -> list[bool]:
        plan = FaultPlan([FaultRule(site="s", probability=0.5)], seed=seed)
        injector = FaultInjector(plan)
        return [injector.evaluate("s") is not None for _ in range(n)]

    def test_same_seed_same_fire_sequence(self) -> None:
        assert self._sequence(42) == self._sequence(42)

    def test_different_seeds_differ(self) -> None:
        assert self._sequence(1) != self._sequence(2)

    def test_after_and_max_fires(self) -> None:
        plan = FaultPlan([FaultRule(site="s", after=2, max_fires=1)], seed=0)
        injector = FaultInjector(plan)
        fired = [injector.evaluate("s") is not None for _ in range(5)]
        assert fired == [False, False, True, False, False]
        assert injector.fired("s") == 1
        assert injector.fired() == 1

    def test_sites_are_independent(self) -> None:
        """Evaluations at one site must not perturb another site's RNG."""
        plan = FaultPlan(
            [FaultRule(site="a", probability=0.5), FaultRule(site="b", probability=0.5)],
            seed=7,
        )
        solo = FaultInjector(plan)
        solo_a = [solo.evaluate("a") is not None for _ in range(100)]
        interleaved = FaultInjector(plan)
        got_a = []
        for _ in range(100):
            interleaved.evaluate("b")
            got_a.append(interleaved.evaluate("a") is not None)
        assert got_a == solo_a

    def test_unknown_site_is_free(self) -> None:
        injector = FaultInjector(FaultPlan([FaultRule(site="s")], seed=0))
        assert injector.evaluate("other") is None


class TestInjectHook:
    def test_disarmed_is_a_no_op(self) -> None:
        uninstall()
        inject("db.io", BackendIOError)  # must not raise

    def test_armed_error_uses_the_site_factory(self) -> None:
        install(FaultPlan([FaultRule(site="db.io")]))
        with pytest.raises(BackendIOError, match="injected fault at site 'db.io'"):
            inject("db.io", BackendIOError)

    def test_armed_error_defaults_to_fault_injection_error(self) -> None:
        install(FaultPlan([FaultRule(site="x")]))
        with pytest.raises(FaultInjectionError):
            inject("x")

    def test_delay_rule_sleeps_instead_of_raising(self) -> None:
        install(
            FaultPlan([FaultRule(site="x", kind="delay", delay_seconds=0.03)])
        )
        start = time.monotonic()
        inject("x", BackendIOError)  # must not raise
        assert time.monotonic() - start >= 0.025

    def test_install_from_env(self) -> None:
        plan = FaultPlan([FaultRule(site="db.io", max_fires=1)], seed=5)
        loaded = install_from_env({FAULT_PLAN_ENV: plan.to_json()})
        assert loaded == plan
        assert active() is not None and active().plan == plan
        uninstall()
        assert install_from_env({}) is None
        assert active() is None


# --------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------- #
class TestDeadline:
    def test_fresh_deadline_is_not_expired(self) -> None:
        deadline = Deadline(60_000)
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0
        assert deadline.remaining_ms() >= 1
        deadline.check()  # must not raise

    def test_expired_deadline_raises_the_pinned_504_error(self) -> None:
        deadline = Deadline(1)
        time.sleep(0.005)
        assert deadline.expired()
        assert deadline.remaining() < 0
        assert deadline.remaining_ms() == 1  # forwardable floor
        with pytest.raises(DeadlineExceededError) as info:
            deadline.check()
        assert info.value.budget_ms == 1

    def test_error_message_is_budget_free(self) -> None:
        """Byte-identical 504 bodies across topologies require that no
        budget number (which forwarding rewrites) leaks into the text."""
        assert str(DeadlineExceededError(100)) == str(DeadlineExceededError(7))
        assert "100" not in str(DeadlineExceededError(100))

    def test_scope_installs_and_restores(self) -> None:
        assert current_deadline() is None
        check_deadline()  # no scope: no-op
        outer, inner = Deadline(60_000), Deadline(30_000)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            with deadline_scope(None):  # None nests as a true no-op
                assert current_deadline() is outer
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_check_deadline_raises_inside_an_expired_scope(self) -> None:
        deadline = Deadline(1)
        time.sleep(0.005)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError):
                check_deadline()


# --------------------------------------------------------------------- #
# The circuit breaker
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_closed_until_threshold_consecutive_failures(self) -> None:
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self) -> None:
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive* failures

    def test_half_open_admits_exactly_one_probe(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.03)
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        time.sleep(0.04)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # everyone else keeps waiting

    def test_probe_success_closes(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_another_window(self) -> None:
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.03)
        breaker.record_failure()
        time.sleep(0.04)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # a fresh reset window armed

    def test_constructor_validation(self) -> None:
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1)


# --------------------------------------------------------------------- #
# Supervisor backoff
# --------------------------------------------------------------------- #
class _StubProcess:
    def poll(self):
        return None


class _StubClient:
    def request(self, endpoint, payload=None, *, timeout=None):
        return 200, {"ok": True}

    def close(self):
        pass


def _handle() -> _Handle:
    spec = WorkerSpec(
        shard_index=0,
        shard_count=1,
        datasets=(DatasetSpec(name="d", database="dblp"),),
        ready_file="",
    )
    return _Handle(index=0, spec=spec)


class TestSupervisorBackoff:
    @pytest.fixture()
    def supervisor(self):
        sup = Supervisor(
            [], backoff_base=0.25, backoff_cap=5.0, backoff_reset_after=10.0
        )
        yield sup
        sup.stop()

    def test_delay_grows_exponentially_to_the_cap(self, supervisor) -> None:
        delays = [supervisor._backoff_delay(n) for n in range(1, 8)]
        assert delays == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0]
        assert supervisor._backoff_delay(0) == 0.0
        assert supervisor._backoff_delay(50) == 5.0  # 2**49 must not overflow this

    def test_note_failure_arms_the_backoff_window(self, supervisor) -> None:
        handle = _handle()
        handle.ready = True
        for expected_failures, expected_delay in ((1, 0.25), (2, 0.5), (3, 1.0)):
            before = time.monotonic()
            supervisor._note_failure(handle)
            assert handle.consecutive_failures == expected_failures
            assert not handle.ready
            lag = handle.not_before - before
            assert expected_delay - 0.01 <= lag <= expected_delay + 0.1

    def test_backoff_resets_after_sustained_health(self, supervisor) -> None:
        handle = _handle()
        handle.process = _StubProcess()
        handle.client = _StubClient()
        handle.ready = True
        handle.consecutive_failures = 3
        handle.ready_since = time.monotonic() - 11.0  # healthy past the window
        supervisor._check(handle)
        assert handle.consecutive_failures == 0

    def test_backoff_does_not_reset_while_recently_restarted(self, supervisor) -> None:
        handle = _handle()
        handle.process = _StubProcess()
        handle.client = _StubClient()
        handle.ready = True
        handle.consecutive_failures = 3
        handle.ready_since = time.monotonic()  # just came back
        supervisor._check(handle)
        assert handle.consecutive_failures == 3


# --------------------------------------------------------------------- #
# Wire protocol: deadline_ms and allow_partial
# --------------------------------------------------------------------- #
class TestProtocolFields:
    def test_deadline_ms_must_be_a_positive_int(self) -> None:
        base = {"dataset": "d", "keywords": ["k"]}
        for bad in (0, -5, 1.5, "100", True):
            with pytest.raises(RequestValidationError, match="deadline_ms"):
                decode_query_request(dict(base, deadline_ms=bad))

    def test_allow_partial_must_be_a_bool(self) -> None:
        base = {"dataset": "d", "keywords": ["k"]}
        with pytest.raises(RequestValidationError, match="allow_partial"):
            decode_query_request(dict(base, allow_partial="yes"))
        request = decode_query_request(dict(base, allow_partial=True, deadline_ms=50))
        assert request.allow_partial is True
        assert request.deadline_ms == 50

    def test_encode_round_trips_the_new_fields(self) -> None:
        request = decode_query_request(
            {"dataset": "d", "keywords": ["k"], "deadline_ms": 250, "allow_partial": True}
        )
        encoded = encode_request(request)
        assert encoded["deadline_ms"] == 250
        assert encoded["allow_partial"] is True
        again = decode_query_request(encoded)
        assert again.deadline_ms == 250 and again.allow_partial is True

    def test_defaults_are_omitted_from_the_wire(self) -> None:
        """Requests without a budget must encode exactly as before PR 7."""
        request = decode_query_request({"dataset": "d", "keywords": ["k"]})
        encoded = encode_request(request)
        assert "deadline_ms" not in encoded
        assert "allow_partial" not in encoded

    def test_request_deadline_helper(self) -> None:
        assert request_deadline(None) is None
        assert request_deadline({"dataset": "d"}) is None
        deadline = request_deadline({"deadline_ms": 100})
        assert isinstance(deadline, Deadline) and deadline.budget_ms == 100
        with pytest.raises(RequestValidationError, match="deadline_ms"):
            request_deadline({"deadline_ms": 0})

    def test_status_mapping(self) -> None:
        assert status_for(DeadlineExceededError(5)) == 504
        assert status_for(BackendIOError("disk")) == 503


# --------------------------------------------------------------------- #
# The dispatcher under faults and deadlines (single process)
# --------------------------------------------------------------------- #
SEED, SCALE = 7, 0.5
KEYWORDS = ["Faloutsos"]


@pytest.fixture(scope="module")
def dispatcher():
    deployment = Deployment().add(
        "dblp", named="dblp", seed=SEED, scale=SCALE, cache_size=64
    )
    return ServiceDispatcher(deployment)


class TestDispatcherReliability:
    @pytest.fixture(autouse=True)
    def cold_cache(self, dispatcher):
        """Injected db.io faults only fire on *executed* statements, so a
        warm OS cache would let a faulted request sail through."""
        status, _ = dispatcher.dispatch_safe(
            "/v1/admin/invalidate", {"dataset": "dblp"}
        )
        assert status == 200

    def test_deadline_blown_by_slow_io_is_the_pinned_504(self, dispatcher) -> None:
        install(
            FaultPlan(
                [FaultRule(site="db.io", kind="delay", delay_seconds=0.02)]
            )
        )
        payload = {
            "dataset": "dblp",
            "keywords": KEYWORDS,
            "options": {"l": 8, "backend": "database"},
            "deadline_ms": 40,
        }
        status, body = dispatcher.dispatch_safe("/v1/query", payload)
        assert status == 504
        assert body == encode_error(DeadlineExceededError(40), 504)
        assert body["error"]["type"] == "DeadlineExceededError"

    def test_injected_backend_io_fault_is_a_503(self, dispatcher) -> None:
        install(FaultPlan([FaultRule(site="db.io", max_fires=1)]))
        payload = {
            "dataset": "dblp",
            "keywords": KEYWORDS,
            "options": {"l": 8, "backend": "database"},
        }
        status, body = dispatcher.dispatch_safe("/v1/query", payload)
        assert status == 503
        assert body["error"]["type"] == "BackendIOError"
        assert body["error"]["status"] == 503

    def test_errors_are_not_cached_and_recovery_is_clean(self, dispatcher) -> None:
        """After the plan is disarmed the very same request must succeed —
        an injected failure (or a 504) must never poison the OS cache."""
        payload = {
            "dataset": "dblp",
            "keywords": KEYWORDS,
            "options": {"l": 8, "backend": "database"},
        }
        install(FaultPlan([FaultRule(site="db.io", max_fires=1)]))
        status, _body = dispatcher.dispatch_safe("/v1/query", payload)
        assert status == 503
        uninstall()
        status, body = dispatcher.dispatch_safe("/v1/query", payload)
        assert status == 200
        assert body["results"]

    def test_generous_deadline_does_not_perturb_the_answer(self, dispatcher) -> None:
        """The cardinal invariant, single-process edition: a request that
        makes its deadline is byte-identical to one with no deadline."""
        payload = {"dataset": "dblp", "keywords": KEYWORDS, "options": {"l": 8}}
        status_plain, plain = dispatcher.dispatch_safe("/v1/query", payload)
        status_budget, budgeted = dispatcher.dispatch_safe(
            "/v1/query", dict(payload, deadline_ms=60_000)
        )
        assert (status_plain, status_budget) == (200, 200)
        stable = ("rank", "table", "row_id", "importance", "selected_uids", "rendered")
        assert [{k: e[k] for k in stable} for e in plain["results"]] == [
            {k: e[k] for k in stable} for e in budgeted["results"]
        ]
        assert "degraded" not in budgeted  # healthy answers carry no marker


class TestSnapshotFaults:
    def test_snapshot_open_fault_is_the_pinned_format_error(
        self, dblp_snapshot
    ) -> None:
        install(FaultPlan([FaultRule(site="snapshot.open", max_fires=1)]))
        with pytest.raises(SnapshotFormatError, match="injected fault"):
            Snapshot.open(dblp_snapshot.path)
        # max_fires=1 spent: the same open now succeeds
        again = Snapshot.open(dblp_snapshot.path)
        assert again.path == dblp_snapshot.path

    def test_snapshot_checksum_fault_fails_verification(self, dblp_snapshot) -> None:
        install(FaultPlan([FaultRule(site="snapshot.checksum", max_fires=1)]))
        with pytest.raises(SnapshotFormatError, match="injected fault"):
            Snapshot.open(dblp_snapshot.path, verify=True)
        # verify=False never reaches the checksum site
        install(FaultPlan([FaultRule(site="snapshot.checksum")]))
        snap = Snapshot.open(dblp_snapshot.path, verify=False)
        assert snap.path == dblp_snapshot.path
