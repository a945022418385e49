"""Tests for the multi-dataset Deployment registry."""

from __future__ import annotations

import threading

import pytest

from repro.core.options import QueryOptions
from repro.errors import (
    ServiceError,
    SnapshotMismatchError,
    UnknownDatasetError,
)
from repro.service import Deployment
from repro.session import Session


class TestRegistry:
    def test_lazy_build_and_reuse(self, dblp) -> None:
        deployment = Deployment().add("dblp", dataset=dblp)
        assert deployment.describe("dblp")["built"] is False
        session = deployment.session("dblp")
        assert deployment.describe("dblp")["built"] is True
        assert deployment.session("dblp") is session  # built exactly once

    def test_concurrent_first_requests_share_one_build(self, dblp) -> None:
        deployment = Deployment().add("dblp", dataset=dblp)
        barrier = threading.Barrier(4)
        sessions: list[Session] = []
        lock = threading.Lock()

        def fetch() -> None:
            barrier.wait()
            session = deployment.session("dblp")
            with lock:
                sessions.append(session)

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(sessions) == 4
        assert all(s is sessions[0] for s in sessions)

    def test_unknown_dataset_raises_with_hint(self, dblp) -> None:
        deployment = Deployment().add("dblp", dataset=dblp)
        with pytest.raises(UnknownDatasetError, match="'tpch'.*dblp"):
            deployment.session("tpch")

    def test_duplicate_name_rejected(self, dblp) -> None:
        deployment = Deployment().add("dblp", dataset=dblp)
        with pytest.raises(ServiceError, match="already registered"):
            deployment.add("dblp", dataset=dblp)

    def test_exactly_one_source_required(self, dblp) -> None:
        with pytest.raises(ServiceError, match="exactly one"):
            Deployment().add("x", dataset=dblp, named="dblp")
        with pytest.raises(ServiceError, match="exactly one"):
            Deployment().add("x")

    def test_session_presets_flow_through(self, dblp) -> None:
        deployment = Deployment().add(
            "dblp",
            dataset=dblp,
            cache_size=7,
            defaults=QueryOptions(l=19),
        )
        session = deployment.session("dblp")
        assert session.cache.max_subjects == 7
        assert session.defaults.l == 19

    def test_membership_and_iteration(self, dblp, tpch) -> None:
        deployment = Deployment().add("dblp", dataset=dblp).add("tpch", dataset=tpch)
        assert "dblp" in deployment and "oracle" not in deployment
        assert list(deployment) == ["dblp", "tpch"]
        assert len(deployment) == 2

    def test_remove_closes_and_forgets(self, dblp) -> None:
        deployment = Deployment().add("dblp", dataset=dblp)
        deployment.session("dblp")
        deployment.remove("dblp")
        assert "dblp" not in deployment
        with pytest.raises(UnknownDatasetError):
            deployment.session("dblp")

    def test_shared_builder_is_copied_per_entry(self, dblp, dblp_snapshot) -> None:
        """One builder registered under two names must not cross-contaminate
        (cache_size / snapshot leaking from entry to entry)."""
        from repro.core.builder import EngineBuilder

        shared = EngineBuilder.from_dataset(dblp)
        deployment = (
            Deployment()
            .add("a", builder=shared, cache_size=5, snapshot=dblp_snapshot.path)
            .add("b", builder=shared)
        )
        session_a = deployment.session("a")
        session_b = deployment.session("b")
        assert session_a.cache.max_subjects == 5
        assert session_a.cache.snapshot is not None
        assert session_b.cache.max_subjects == 64  # the stock default
        assert session_b.cache.snapshot is None  # no inherited snapshot
        assert shared._cache_size == 64  # the caller's builder untouched
        assert shared._snapshot is None

    def test_persist_failure_outside_reload_is_500(self, dblp, tmp_path) -> None:
        """A broken snapshot path hit by the lazy first build is a server
        problem (500), not the reload contract's 409."""
        from repro.service import ServiceDispatcher

        deployment = Deployment().add(
            "dblp", dataset=dblp, snapshot=tmp_path / "missing.d"
        )
        status, body = ServiceDispatcher(deployment).dispatch_safe(
            "/v1/query", {"dataset": "dblp", "keywords": ["x"]}
        )
        assert status == 500
        assert body["error"]["type"] == "SnapshotFormatError"

    def test_add_session_registers_prebuilt(self, dblp) -> None:
        session = Session.from_dataset(dblp)
        deployment = Deployment().add_session("live", session)
        assert deployment.session("live") is session
        assert deployment.describe("live")["built"] is True


class TestIndependence:
    def test_invalidate_is_scoped_to_one_dataset(self, dblp, tpch) -> None:
        deployment = Deployment().add("dblp", dataset=dblp).add("tpch", dataset=tpch)
        options = QueryOptions(l=5)
        deployment.session("dblp").keyword_query("Faloutsos", options=options)
        deployment.session("tpch").keyword_query("Supplier#000001", options=options)
        assert deployment.session("tpch").cache_stats().cached_subjects > 0

        deployment.invalidate("dblp")
        assert deployment.session("dblp").cache_stats().cached_subjects == 0
        assert deployment.session("tpch").cache_stats().cached_subjects > 0

    def test_stats_are_per_dataset(self, dblp, tpch) -> None:
        deployment = Deployment().add("dblp", dataset=dblp).add("tpch", dataset=tpch)
        deployment.session("dblp").size_l("author", 1, 5)
        stats = deployment.stats("dblp")
        assert stats["dataset"] == "dblp"
        assert stats["cache"]["misses"] >= 1
        assert deployment.stats("tpch")["cache"]["misses"] == 0

    def test_aggregate_stats_do_not_build_unbuilt_entries(self, dblp, tpch) -> None:
        """GET /v1/stats (no dataset) is a monitoring probe: it must not
        synthesize every hosted dataset on a freshly booted server."""
        from repro.service import ServiceDispatcher

        deployment = Deployment().add("dblp", dataset=dblp).add("tpch", dataset=tpch)
        deployment.session("dblp")  # build exactly one
        body = ServiceDispatcher(deployment).dispatch("/v1/stats")
        assert "cache" in body["dblp"]  # built: full serving stats
        assert body["tpch"]["built"] is False  # unbuilt: metadata only
        assert deployment.describe("tpch")["built"] is False  # still unbuilt

    def test_built_session_fast_path_skips_the_entry_lock(self, dblp) -> None:
        """Serving must not stall behind a slow entry-lock holder once the
        session exists (e.g. a reload hashing a large snapshot)."""
        deployment = Deployment().add("dblp", dataset=dblp)
        session = deployment.session("dblp")
        entry = deployment._entry("dblp")
        assert entry.lock.acquire()  # simulate a long-held entry lock
        try:
            assert deployment.session("dblp") is session  # no deadlock
        finally:
            entry.lock.release()


class TestReload:
    def test_reload_requires_snapshot_path(self, dblp) -> None:
        deployment = Deployment().add("dblp", dataset=dblp)
        with pytest.raises(ServiceError, match="no snapshot path"):
            deployment.reload("dblp")

    def test_reload_reattaches_and_counts(self, dblp, dblp_snapshot) -> None:
        deployment = Deployment().add(
            "dblp", dataset=dblp, snapshot=dblp_snapshot.path
        )
        session = deployment.session("dblp")
        before = session.cache.snapshot
        report = deployment.reload("dblp")
        assert report["reloads"] == 1
        assert report["subjects"] == len(dblp_snapshot)
        # a fresh Snapshot object is attached (re-opened from the path)
        assert session.cache.snapshot is not before
        assert deployment.describe("dblp")["reloads"] == 1

    def test_reload_restores_masked_disk_entries(self, dblp, dblp_snapshot) -> None:
        options = QueryOptions(l=6, source="complete")
        deployment = Deployment().add(
            "dblp", dataset=dblp, snapshot=dblp_snapshot.path, cache_size=2
        )
        session = deployment.session("dblp")
        session.size_l("author", 1, options=options)
        assert session.cache_stats().disk_hits == 1

        # invalidate masks the snapshot entry: the next request regenerates
        deployment.invalidate("dblp", "author", 1)
        session.size_l("author", 1, options=options)
        assert session.cache_stats().tree_generations == 1

        # reload re-validates and re-enables the whole disk tier
        deployment.reload("dblp")
        session.invalidate()  # memory out; but a reloaded tier serves again
        deployment.reload("dblp")
        session.size_l("author", 1, options=options)
        assert session.cache_stats().disk_hits == 2

    def test_failed_reload_keeps_serving(self, dblp, tpch, dblp_snapshot) -> None:
        """A mismatched replacement snapshot must not take the entry down."""
        deployment = Deployment().add("tpch", dataset=tpch)
        session = deployment.session("tpch")
        # point the entry at a snapshot of the WRONG dataset
        deployment._entry("tpch").snapshot_path = dblp_snapshot.path
        with pytest.raises(SnapshotMismatchError):
            deployment.reload("tpch")
        # still serving, disk tier unchanged (never attached)
        assert session.cache.snapshot is None
        results = session.keyword_query("Supplier#000001", options=QueryOptions(l=5))
        assert results
