"""The live mutation subsystem end to end.

Four tiers, mirroring the write path's layering:

* storage — :meth:`HashIndex.remove_row` and transactional
  apply/rollback semantics on the :class:`Database`;
* equivalence — the subsystem's defining property: *mutate then query*
  must equal *rebuild every derived structure from scratch then query*,
  node for node, for both ``keyword_query`` and ``size_l``;
* watches — ``/v1/watch`` continual queries notify exactly when the
  top-k changes, with poll-cursor and cancellation semantics, on the
  single-process dispatcher and across a sharded cluster;
* chaos — concurrent mutators and readers under seeded faults at the
  ``live.apply`` site must never produce a torn answer: every reader
  observes each transaction entirely or not at all.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.engine import SizeLEngine
from repro.core.generation import DataGraphBackend
from repro.core.os_tree import FlatOS, OSNode
from repro.datasets.dblp import small_dblp
from repro.db.index import HashIndex
from repro.db.mutation import Delete, Insert, Update
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import ColumnType
from repro.errors import (
    BackendIOError,
    IntegrityError,
    RequestValidationError,
)
from repro.live import APPLY_FAULT_SITE
from repro.reliability import FaultPlan, FaultRule, install, uninstall
from repro.session import Session

from tests.oracles import assert_same_tree, generate_prelim_os_nodes

KEYWORDS = ["Faloutsos"]


def _index_table() -> Table:
    return Table(
        TableSchema(
            "item",
            [
                Column("item_id", ColumnType.INT),
                Column("bucket", ColumnType.INT, nullable=True),
            ],
            primary_key="item_id",
        )
    )


# --------------------------------------------------------------------- #
# HashIndex.remove_row
# --------------------------------------------------------------------- #
class TestHashIndexRemove:
    def test_remove_keeps_duplicate_values(self) -> None:
        table = _index_table()
        for item_id in range(3):
            table.insert([item_id, 7])  # three rows share bucket 7
        index = HashIndex(table, "bucket")
        index.remove_row(1, (1, 7))
        assert index.lookup(7) == [0, 2]
        index.remove_row(0, (0, 7))
        assert index.lookup(7) == [2]

    def test_remove_last_entry_drops_the_bucket(self) -> None:
        table = _index_table()
        table.insert([1, 7])
        index = HashIndex(table, "bucket")
        index.remove_row(0, (1, 7))
        assert index.lookup(7) == []
        assert index.distinct_values() == 0

    def test_remove_missing_row_is_a_noop(self) -> None:
        table = _index_table()
        table.insert([1, 7])
        index = HashIndex(table, "bucket")
        index.remove_row(99, (99, 7))  # row id never indexed
        index.remove_row(0, (1, 123))  # value never indexed
        assert index.lookup(7) == [0]

    def test_remove_null_is_a_noop(self) -> None:
        table = _index_table()
        table.insert([1, None])
        index = HashIndex(table, "bucket")
        index.remove_row(0, (1, None))
        assert index.distinct_values() == 0

    def test_table_mutations_keep_attached_index_current(self) -> None:
        table = _index_table()
        table.insert([1, 7])
        table.insert([2, 7])
        index = HashIndex(table, "bucket")
        table.update_row(0, {"bucket": 9})
        assert index.lookup(7) == [1]
        assert index.lookup(9) == [0]
        table.delete_row(1)
        assert index.lookup(7) == []


# --------------------------------------------------------------------- #
# Transactions
# --------------------------------------------------------------------- #
@pytest.fixture()
def mutable_db():
    return small_dblp(seed=7).db


class TestTransactions:
    def test_multi_op_commit_is_atomic_and_versioned(self, mutable_db) -> None:
        db = mutable_db
        before = db.data_version
        author_pk = max(row[0] for _rid, row in db.table("author").scan()) + 1
        writes_pk = max(row[0] for _rid, row in db.table("writes").scan()) + 1
        commit = db.apply_transaction(
            [
                Insert("author", {"author_id": author_pk, "name": "Test Author"}),
                Insert(
                    "writes",
                    {"writes_id": writes_pk, "author_id": author_pk, "paper_id": 0},
                ),
            ]
        )
        assert commit.applied == 2
        assert db.data_version == before + 1 == commit.version
        row_id = db.table("author").row_id_for_pk(author_pk)
        assert db.table("author").row(row_id)[1] == "Test Author"

    def test_failed_transaction_rolls_back_every_op(self, mutable_db) -> None:
        db = mutable_db
        before_version = db.data_version
        before_row = db.table("author").row(5)
        before_count = db.table("author").live_count
        with pytest.raises(IntegrityError):
            db.apply_transaction(
                [
                    Update("author", before_row[0], {"name": "Halfway"}),
                    Update("author", -12345, {"name": "No Such Row"}),
                ]
            )
        assert db.data_version == before_version
        assert db.table("author").row(5) == before_row
        assert db.table("author").live_count == before_count

    def test_fk_restrict_blocks_referenced_delete(self, mutable_db) -> None:
        db = mutable_db
        author_pk = db.table("author").row(0)[0]
        with pytest.raises(IntegrityError):
            db.apply_transaction([Delete("author", author_pk)])

    def test_delete_tombstones_without_renumbering(self, mutable_db) -> None:
        db = mutable_db
        writes = db.table("writes")
        slots = len(writes)
        live = writes.live_count
        pk = writes.row(0)[0]
        db.apply_transaction([Delete("writes", pk)])
        assert len(writes) == slots  # slot count never shrinks
        assert writes.live_count == live - 1
        assert writes.row(1) is not None  # neighbours keep their row ids

    def test_insert_violating_fk_rolls_back(self, mutable_db) -> None:
        db = mutable_db
        before = db.data_version
        writes_pk = max(row[0] for _rid, row in db.table("writes").scan()) + 1
        with pytest.raises(IntegrityError):
            db.apply_transaction(
                [
                    Insert(
                        "writes",
                        {
                            "writes_id": writes_pk,
                            "author_id": 10**9,  # dangling FK
                            "paper_id": 0,
                        },
                    )
                ]
            )
        assert db.data_version == before
        assert not db.table("writes").has_pk(writes_pk)

    def test_primary_key_update_is_rejected(self, mutable_db) -> None:
        db = mutable_db
        with pytest.raises((IntegrityError, RequestValidationError)):
            db.apply_transaction([Update("author", 5, {"author_id": 10**9})])


# --------------------------------------------------------------------- #
# Incremental maintenance == full rebuild (the defining property)
# --------------------------------------------------------------------- #
def canonical(node: OSNode) -> tuple:
    """An OS subtree as comparable data: (table, row_id, weight, children)."""
    return (
        node.table,
        node.row_id,
        round(node.weight, 9),
        tuple(sorted(canonical(child) for child in node.children)),
    )


def mutation_script(db) -> list:
    """A script touching every op kind and every maintenance path:
    token-changing updates, a join-edge insert, and a leaf delete."""
    author_pk = max(row[0] for _rid, row in db.table("author").scan()) + 1
    writes_pk = max(row[0] for _rid, row in db.table("writes").scan()) + 1
    removable = db.table("writes").row(3)[0]
    return [
        [Update("author", 5, {"name": "Faloutsos Faloutsos Wizard"})],
        [
            Insert("author", {"author_id": author_pk, "name": "Nova Faloutsos"}),
            Insert(
                "writes",
                {"writes_id": writes_pk, "author_id": author_pk, "paper_id": 2},
            ),
        ],
        [Delete("writes", removable)],
        [Update("paper", 2, {"title": "Reconsidered Indexing Faloutsos"})],
    ]


class TestIncrementalEqualsRebuild:
    @pytest.fixture()
    def mutated_session(self) -> Session:
        session = Session.from_dataset(small_dblp(seed=7))
        for transaction in mutation_script(session.engine.db):
            session.apply_mutations(transaction)
        return session

    @pytest.fixture()
    def rebuilt(self, mutated_session: Session) -> SizeLEngine:
        """Every derived structure rebuilt from the mutated rows: a fresh
        CSR data graph and a fresh inverted index, sharing only the store
        (importance is frozen between compactions by design)."""
        engine = mutated_session.engine
        return SizeLEngine(
            engine.db, engine.gds_by_root, engine.store, theta=engine.theta
        )

    def test_search_matches_equal(self, mutated_session, rebuilt) -> None:
        live = mutated_session.engine.searcher.search(KEYWORDS)
        fresh = rebuilt.searcher.search(KEYWORDS)
        assert [(m.table, m.row_id, m.importance) for m in live] == [
            (m.table, m.row_id, m.importance) for m in fresh
        ]

    def test_keyword_query_equal_node_for_node(
        self, mutated_session, rebuilt
    ) -> None:
        live = mutated_session.keyword_query(KEYWORDS, l=8)
        fresh = rebuilt.keyword_query(KEYWORDS, l=8)
        assert len(live) == len(fresh) > 0
        for a, b in zip(live, fresh):
            assert (a.match.table, a.match.row_id) == (b.match.table, b.match.row_id)
            assert a.result.importance == pytest.approx(b.result.importance)
            assert canonical(a.result.summary.root) == canonical(b.result.summary.root)
            assert a.result.render() == b.result.render()

    def test_size_l_equal_for_dirty_and_clean_subjects(
        self, mutated_session, rebuilt
    ) -> None:
        # author 5 (updated), paper 2 (updated + new join edge),
        # author 17 (untouched control)
        for subject in [("author", 5), ("paper", 2), ("author", 17)]:
            live = mutated_session.size_l(*subject, l=6)
            fresh = rebuilt.size_l(*subject, l=6)
            assert live.importance == pytest.approx(fresh.importance)
            assert canonical(live.summary.root) == canonical(fresh.summary.root)

    def test_complete_os_equal(self, mutated_session, rebuilt) -> None:
        live = mutated_session.complete_os("author", 5).to_object_summary()
        fresh = rebuilt.complete_os("author", 5).to_object_summary()
        assert canonical(live.root) == canonical(fresh.root)

    def test_prelim_os_equals_oracle_on_live_graph(
        self, mutated_session, rebuilt
    ) -> None:
        """Algorithm 4's FlatOS over the overlaid (live) data graph equals
        the node-based oracle over the same graph, node for node with
        identical avoidance counters, and the rebuilt engine's answer."""
        engine = mutated_session.engine
        for subject in [("author", 5), ("paper", 2)]:
            flat, stats = engine.prelim_os(*subject, 8)
            tree, oracle_stats = generate_prelim_os_nodes(
                subject[1], engine.gds_for(subject[0]),
                DataGraphBackend(engine.db, engine.data_graph), engine.store, 8,
            )
            assert_same_tree(flat, tree)
            assert stats == oracle_stats
            fresh, fresh_stats = rebuilt.prelim_os(*subject, 8)
            for column in FlatOS.ARENA_FIELDS:
                assert np.array_equal(getattr(fresh, column), getattr(flat, column))
            assert fresh_stats == stats

    def test_compaction_preserves_answers(self, mutated_session) -> None:
        before = [
            canonical(r.result.summary.root)
            for r in mutated_session.keyword_query(KEYWORDS, l=8)
        ]
        live = mutated_session.live
        assert live.stats()["index_dirty"] is True
        live.compact()
        assert live.stats()["index_dirty"] is False
        after = [
            canonical(r.result.summary.root)
            for r in mutated_session.keyword_query(KEYWORDS, l=8)
        ]
        assert before == after


# --------------------------------------------------------------------- #
# Watches (single-process service layer)
# --------------------------------------------------------------------- #
@pytest.fixture()
def dispatcher():
    from repro.service.deployment import Deployment
    from repro.service.dispatch import ServiceDispatcher

    deployment = Deployment()
    deployment.add("dblp", named="dblp", seed=7, scale=0.5)
    return ServiceDispatcher(deployment)


class TestWatchEndpoints:
    def test_watch_notifies_exactly_when_top_k_changes(self, dispatcher) -> None:
        status, watch = dispatcher.dispatch_safe(
            "/v1/watch", {"dataset": "dblp", "keywords": "faloutsos", "k": 4}
        )
        assert status == 200 and watch["dataset_version"] == 0
        baseline = [(r["table"], r["row_id"]) for r in watch["top_k"]]
        assert baseline == [("author", 0), ("author", 1), ("author", 2)]

        # a write that cannot affect the watched tokens: no notification
        status, body = dispatcher.dispatch_safe(
            "/v1/mutate",
            {
                "dataset": "dblp",
                "operations": [
                    {"op": "update", "table": "paper", "pk": 0,
                     "set": {"title": "Untokenized Revision"}}
                ],
            },
        )
        assert status == 200 and body["watch_notifications"] == 0

        # a write that promotes a new subject into the top-4
        status, body = dispatcher.dispatch_safe(
            "/v1/mutate",
            {
                "dataset": "dblp",
                "operations": [
                    {"op": "update", "table": "author", "pk": 5,
                     "set": {"name": "Faloutsos Faloutsos Faloutsos"}}
                ],
            },
        )
        assert status == 200 and body["dataset_version"] == 2
        assert body["watch_notifications"] == 1
        assert body["dirty_subjects"] == {"author": [5]}

        status, poll = dispatcher.dispatch_safe(
            "/v1/watch/poll",
            {"dataset": "dblp", "watch_id": watch["watch_id"], "timeout_ms": 0},
        )
        assert status == 200
        [notification] = poll["notifications"]
        assert notification["dataset_version"] == 2
        new_top = [(r["table"], r["row_id"]) for r in notification["top_k"]]
        assert new_top != baseline
        assert ("author", 5) in new_top

        # cursor semantics: nothing after the delivered version
        status, empty = dispatcher.dispatch_safe(
            "/v1/watch/poll",
            {
                "dataset": "dblp",
                "watch_id": watch["watch_id"],
                "after_version": notification["dataset_version"],
                "timeout_ms": 0,
            },
        )
        assert status == 200 and empty["notifications"] == []

    def test_cancel_then_poll_is_404(self, dispatcher) -> None:
        _, watch = dispatcher.dispatch_safe(
            "/v1/watch", {"dataset": "dblp", "keywords": "faloutsos", "k": 2}
        )
        status, body = dispatcher.dispatch_safe(
            "/v1/watch/cancel",
            {"dataset": "dblp", "watch_id": watch["watch_id"]},
        )
        assert (status, body["cancelled"]) == (200, True)
        status, body = dispatcher.dispatch_safe(
            "/v1/watch/poll",
            {"dataset": "dblp", "watch_id": watch["watch_id"], "timeout_ms": 0},
        )
        assert status == 404
        assert body["error"]["type"] == "UnknownWatchError"

    def test_queries_carry_the_dataset_version(self, dispatcher) -> None:
        status, before = dispatcher.dispatch_safe(
            "/v1/query", {"dataset": "dblp", "keywords": "faloutsos", "page_size": 2}
        )
        assert (status, before["dataset_version"]) == (200, 0)
        dispatcher.dispatch_safe(
            "/v1/mutate",
            {
                "dataset": "dblp",
                "operations": [
                    {"op": "update", "table": "author", "pk": 9,
                     "set": {"name": "Renamed Researcher"}}
                ],
            },
        )
        status, after = dispatcher.dispatch_safe(
            "/v1/query", {"dataset": "dblp", "keywords": "faloutsos", "page_size": 2}
        )
        assert (status, after["dataset_version"]) == (200, 1)

    def test_mutate_validation_is_pinned(self, dispatcher) -> None:
        status, body = dispatcher.dispatch_safe(
            "/v1/mutate",
            {"dataset": "dblp", "operations": [{"op": "update", "table": "author"}]},
        )
        assert status == 400
        assert "operations[0]" in body["error"]["message"]


# --------------------------------------------------------------------- #
# Sharded topology: cluster answers == single-process answers
# --------------------------------------------------------------------- #
_MUTATION = {
    "dataset": "dblp",
    "operations": [
        {"op": "update", "table": "author", "pk": 5,
         "set": {"name": "Faloutsos Faloutsos Wizard"}},
        {"op": "insert", "table": "author",
         "values": {"author_id": 10_000, "name": "Nova Faloutsos"}},
        {"op": "insert", "table": "writes",
         "values": {"writes_id": 10_000, "author_id": 10_000, "paper_id": 2}},
    ],
}

#: Entry fields stable across processes (stats carries wall-clock noise).
_STABLE = ("rank", "table", "row_id", "importance", "l", "selected_uids", "rendered")


def _stable(entry: dict) -> dict:
    return {key: entry[key] for key in _STABLE}


class TestClusterLive:
    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.cluster import Cluster, DatasetSpec

        specs = [DatasetSpec(name="dblp", database="dblp", seed=7, scale=0.5)]
        with Cluster(specs, shards=2, request_timeout=30.0) as cluster:
            yield cluster

    @pytest.fixture(scope="class")
    def reference(self):
        from repro.service.deployment import Deployment
        from repro.service.dispatch import ServiceDispatcher

        deployment = Deployment()
        deployment.add("dblp", named="dblp", seed=7, scale=0.5)
        return ServiceDispatcher(deployment)

    def test_mutated_cluster_equals_mutated_single_process(
        self, cluster, reference
    ) -> None:
        query = {"dataset": "dblp", "keywords": "faloutsos", "options": {"l": 8}}
        for target in (cluster, reference):
            status, body = target.dispatch_safe("/v1/mutate", _MUTATION)
            assert status == 200 and body["applied"] == 3
        status, sharded = cluster.dispatch_safe("/v1/query", query)
        assert status == 200
        status, single = reference.dispatch_safe("/v1/query", query)
        assert status == 200
        assert sharded["dataset_version"] == single["dataset_version"] == 1
        assert [_stable(e) for e in sharded["results"]] == [
            _stable(e) for e in single["results"]
        ]
        assert sharded["total_matches"] == single["total_matches"]

    def test_watch_across_shards(self, cluster, reference) -> None:
        # k beyond the current match count: any new matching subject must
        # enter the top-k and trigger a notification
        status, watch = cluster.dispatch_safe(
            "/v1/watch", {"dataset": "dblp", "keywords": "faloutsos", "k": 10}
        )
        assert status == 200
        status, body = cluster.dispatch_safe(
            "/v1/mutate",
            {
                "dataset": "dblp",
                "operations": [
                    {"op": "update", "table": "author", "pk": 7,
                     "set": {"name": "Faloutsos Faloutsos Faloutsos Prime"}}
                ],
            },
        )
        assert status == 200
        status, poll = cluster.dispatch_safe(
            "/v1/watch/poll",
            {"dataset": "dblp", "watch_id": watch["watch_id"], "timeout_ms": 2000},
        )
        assert status == 200
        [notification] = poll["notifications"]
        assert ("author", 7) in [
            (r["table"], r["row_id"]) for r in notification["top_k"]
        ]
        status, body = cluster.dispatch_safe(
            "/v1/watch/cancel",
            {"dataset": "dblp", "watch_id": watch["watch_id"]},
        )
        assert (status, body["cancelled"]) == (200, True)

    def test_unknown_watch_is_404_cluster_wide(self, cluster) -> None:
        status, body = cluster.dispatch_safe(
            "/v1/watch/poll",
            {"dataset": "dblp", "watch_id": "deadbeef", "timeout_ms": 0},
        )
        assert status == 404
        assert body["error"]["type"] == "UnknownWatchError"

    def test_live_gauges_merge_across_shards(self, cluster) -> None:
        status, stats = cluster.dispatch_safe("/v1/stats", None)
        assert status == 200
        assert stats["dblp"]["dataset_version"] >= 1
        assert stats["dblp"]["watch_active"] == 0  # the watch was cancelled


# --------------------------------------------------------------------- #
# Chaos: concurrent writers and readers, faults armed at live.apply
# --------------------------------------------------------------------- #
class TestReadGuard:
    def test_first_commit_waits_for_an_open_read(self) -> None:
        session = Session.from_dataset(small_dblp(seed=7))
        reading = threading.Event()
        release = threading.Event()

        def reader() -> None:
            with session.guard().read():
                reading.set()
                release.wait(timeout=10)

        def writer() -> None:
            session.apply_mutations([Update("author", 5, {"name": "Held Back Writer"})])

        read_thread = threading.Thread(target=reader)
        write_thread = threading.Thread(target=writer)
        read_thread.start()
        assert reading.wait(timeout=10)
        write_thread.start()
        try:
            write_thread.join(timeout=0.3)
            # the dataset's first-ever commit waits out the open read
            assert write_thread.is_alive()
            assert session.dataset_version == 0
        finally:
            release.set()
            read_thread.join(timeout=10)
            write_thread.join(timeout=10)
        assert not read_thread.is_alive() and not write_thread.is_alive()
        assert session.dataset_version == 1

    @staticmethod
    def _until(predicate, timeout: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    @staticmethod
    def _writer(session: Session, name: str) -> threading.Thread:
        return threading.Thread(
            target=session.apply_mutations,
            args=([Update("author", 5, {"name": name})],),
            daemon=True,
        )

    def test_fresh_read_waits_behind_a_waiting_writer(self) -> None:
        """Strict writer preference: once a writer waits, a fresh reader on
        another thread waits until the commit lands, however long."""
        session = Session.from_dataset(small_dblp(seed=7))
        lock = session.guard()
        holding, release = threading.Event(), threading.Event()
        entered: list[int] = []

        def holder() -> None:
            with lock.read():
                holding.set()
                release.wait(timeout=10)

        def fresh_reader() -> None:
            with lock.read():
                entered.append(session.dataset_version)

        hold_thread = threading.Thread(target=holder, daemon=True)
        write_thread = self._writer(session, "Strict Writer")
        read_thread = threading.Thread(target=fresh_reader, daemon=True)
        hold_thread.start()
        assert holding.wait(timeout=10)
        write_thread.start()
        try:
            assert self._until(lambda: lock._write_waiters == 1)
            read_thread.start()
            read_thread.join(timeout=0.3)
            assert read_thread.is_alive() and entered == []
            assert session.dataset_version == 0
        finally:
            release.set()
            for thread in (hold_thread, write_thread, read_thread):
                thread.join(timeout=10)
        assert not any(
            t.is_alive() for t in (hold_thread, write_thread, read_thread)
        )
        assert entered == [1]  # admitted only after the commit

    def test_held_read_reenters_while_writer_waits(self) -> None:
        session = Session.from_dataset(small_dblp(seed=7))
        lock = session.guard()
        holding, writer_waiting = threading.Event(), threading.Event()
        seen: list[int] = []

        def holder() -> None:
            with lock.read():
                holding.set()
                writer_waiting.wait(timeout=10)
                with lock.read():  # nested: admitted despite the writer
                    seen.append(session.size_l("author", 0, l=5).size)
                    seen.append(session.dataset_version)

        hold_thread = threading.Thread(target=holder, daemon=True)
        write_thread = self._writer(session, "Patient Writer")
        hold_thread.start()
        assert holding.wait(timeout=10)
        write_thread.start()
        assert self._until(lambda: lock._write_waiters == 1)
        writer_waiting.set()
        hold_thread.join(timeout=10)
        write_thread.join(timeout=10)
        assert not hold_thread.is_alive() and not write_thread.is_alive()
        assert seen == [5, 0]
        assert session.dataset_version == 1

    def test_flight_leader_never_queues_behind_a_writer(self) -> None:
        """An in-process size_l leads a flight; a dispatcher-style caller
        holding a read waits on that flight; a writer waits for that read.
        The leader took its read before leading, so its own generation
        re-enters and all three finish."""
        session = Session.from_dataset(small_dblp(seed=7))
        lock = session.guard()
        engine_run = session.engine.run
        leading, go = threading.Event(), threading.Event()
        holding, released = threading.Event(), threading.Event()

        def gated_run(rds_table, row_id, options):
            leading.set()
            go.wait(timeout=10)
            return engine_run(rds_table, row_id, options)

        session.engine.run = gated_run  # type: ignore[method-assign]

        def leader() -> None:
            session.size_l("author", 0, l=5)

        def dispatcher() -> None:
            with lock.read():
                holding.set()
                leading.wait(timeout=10)
                session.size_l("author", 0, l=5)
            released.set()

        threads = [
            threading.Thread(target=dispatcher, daemon=True),
            threading.Thread(target=leader, daemon=True),
            self._writer(session, "Third Thread"),
        ]
        threads[0].start()
        assert holding.wait(timeout=10)
        threads[1].start()
        assert leading.wait(timeout=10)
        threads[2].start()
        assert self._until(lambda: lock._write_waiters == 1)
        assert self._until(lambda: session.cache.single_flight_waits == 1)
        go.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert released.is_set()
        assert session.dataset_version == 1


class TestChaosHammer:
    def test_no_torn_answers_under_seeded_faults(self) -> None:
        session = Session.from_dataset(small_dblp(seed=7))
        db = session.engine.db
        # one author and one of their papers: a transaction stamps BOTH
        # with the same epoch tag, so any reader mixing epochs is torn
        author_row = 5
        author_pk = db.table("author").row(author_row)[0]
        paper_row = next(
            row[2] for _rid, row in db.table("writes").scan()
            if row[1] == author_pk
        )
        paper_pk = db.table("paper").row(paper_row)[0]

        def epoch_of(text: str) -> int | None:
            head, _, tail = text.partition(" ")
            return int(tail.split()[0]) if head == "Epoch" else None

        readers = 3
        stop = threading.Event()
        barrier = threading.Barrier(readers + 1)
        errors: list[str] = []
        checks = [0] * readers
        applied: list[int] = []
        aborted: list[int] = []

        def writer() -> None:
            barrier.wait()
            for epoch in range(40):
                try:
                    session.apply_mutations(
                        [
                            Update("author", author_pk,
                                   {"name": f"Epoch {epoch} Zarathustra"}),
                            Update("paper", paper_pk,
                                   {"title": f"Epoch {epoch} Treatise"}),
                        ]
                    )
                    applied.append(epoch)
                except BackendIOError:
                    aborted.append(epoch)  # injected: clean whole-txn abort
            stop.set()

        def reader(slot: int) -> None:
            barrier.wait()
            # keep checking past `stop` until this reader has seen enough
            # iterations — a fast writer must not void the test
            while (not stop.is_set() or checks[slot] < 5) and not errors:
                with session.guard().read():
                    summary = session.complete_os("author", author_row).to_object_summary()
                    name_epoch = epoch_of(db.table("author").row(author_row)[1])
                    title_epoch = epoch_of(db.table("paper").row(paper_row)[1])
                    rendered = summary.render()
                # the guard pins one version across the OS build, the raw
                # row reads, AND the render: all four epochs must agree
                # (before the first commit all four are None — also agreed)
                lines = rendered.splitlines()
                rendered_name = epoch_of(lines[0].split(": ", 1)[1])
                treatise = next(
                    (line for line in lines if "Treatise" in line), None
                )
                rendered_title = (
                    epoch_of(treatise.split(": ", 1)[1]) if treatise else None
                )
                epochs = {name_epoch, title_epoch, rendered_name, rendered_title}
                if epochs != {None}:
                    checks[slot] += 1
                if len(epochs) != 1:
                    errors.append(
                        f"torn answer: name={name_epoch} title={title_epoch} "
                        f"rendered=({rendered_name}, {rendered_title})"
                    )

        install(
            FaultPlan(
                [FaultRule(site=APPLY_FAULT_SITE, probability=0.35)], seed=11
            )
        )
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            uninstall()
        assert not errors, errors[0]
        assert all(count >= 5 for count in checks)
        # the plan actually exercised both outcomes, and the version
        # counts exactly the successful commits
        assert applied and aborted
        assert db.data_version == len(applied)
        final_name = db.table("author").row(author_row)[1]
        final_title = db.table("paper").row(paper_row)[1]
        assert epoch_of(final_name) == epoch_of(final_title) == applied[-1]

    def test_aborted_transaction_leaves_watches_silent(self) -> None:
        session = Session.from_dataset(small_dblp(seed=7))
        live = session.live_state()
        watch, _version = live.register_watch(["faloutsos"], 3)
        install(FaultPlan([FaultRule(site=APPLY_FAULT_SITE)], seed=1))
        try:
            with pytest.raises(BackendIOError):
                session.apply_mutations(
                    [Update("author", 5, {"name": "Faloutsos Faloutsos Peak"})]
                )
        finally:
            uninstall()
        assert session.dataset_version == 0
        _watch, notifications, version = live.poll_watch(watch.watch_id, 0, 0.0)
        assert notifications == [] and version == 0
