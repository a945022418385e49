"""Edge-case and failure-injection tests across subsystems.

Covers the corners the main suites do not: NULL foreign keys flowing
through every join type, self-referential (hierarchy) schemas, θ extremes,
and renderer behaviour on degenerate inputs.
"""

from __future__ import annotations

import pytest

from repro.core.engine import SizeLEngine
from repro.core.generation import DatabaseBackend, DataGraphBackend, generate_os
from repro.datagraph.builder import build_data_graph
from repro.db import Column, ColumnType, Database, ForeignKey, QueryInterface, TableSchema
from repro.ranking.store import ImportanceStore
from repro.schema_graph.affinity import ComputedAffinityModel, ManualAffinityModel
from repro.schema_graph.gds import build_gds
from repro.schema_graph.graph import SchemaGraph

INT, TEXT = ColumnType.INT, ColumnType.TEXT


@pytest.fixture()
def orphan_db() -> Database:
    """Items optionally belonging to a box (nullable FK)."""
    db = Database("orphans")
    db.create_table(
        TableSchema(
            "box",
            [Column("box_id", INT), Column("label", TEXT, text_searchable=True)],
            primary_key="box_id",
        )
    )
    db.create_table(
        TableSchema(
            "item",
            [
                Column("item_id", INT),
                Column("name", TEXT, text_searchable=True),
                Column("box_id", INT, nullable=True),
            ],
            primary_key="item_id",
            foreign_keys=[ForeignKey("box_id", "box", "box_id")],
        )
    )
    db.insert("box", [0, "crate"])
    db.insert("item", [0, "hammer", 0])
    db.insert("item", [1, "feather", None])  # orphan: NULL FK
    db.validate_integrity()
    db.ensure_fk_indexes()
    return db


class TestNullForeignKeys:
    def _item_gds(self, db: Database):
        graph = SchemaGraph(db)
        model = ManualAffinityModel({"item": 1.0, "box": 0.9})
        return build_gds(graph, "item", model, max_depth=2)

    def test_datagraph_backend_skips_null_ref(self, orphan_db) -> None:
        gds = self._item_gds(orphan_db)
        store = ImportanceStore.uniform(orphan_db)
        backend = DataGraphBackend(orphan_db, build_data_graph(orphan_db))
        orphan_os = generate_os(1, gds, backend, store)
        assert orphan_os.size == 1  # feather has no box: root only
        boxed_os = generate_os(0, gds, backend, store)
        assert boxed_os.size == 2

    def test_database_backend_skips_null_ref_but_counts_io(self, orphan_db) -> None:
        gds = self._item_gds(orphan_db)
        store = ImportanceStore.uniform(orphan_db)
        qi = QueryInterface(orphan_db)
        backend = DatabaseBackend(qi)
        orphan_os = generate_os(1, gds, backend, store)
        assert orphan_os.size == 1
        assert qi.io_accesses >= 1  # the lookup still executed

    def test_both_backends_agree(self, orphan_db) -> None:
        gds = self._item_gds(orphan_db)
        store = ImportanceStore.uniform(orphan_db)
        for row_id in (0, 1):
            via_graph = generate_os(
                row_id, gds, DataGraphBackend(orphan_db, build_data_graph(orphan_db)), store
            )
            via_db = generate_os(
                row_id, gds, DatabaseBackend(QueryInterface(orphan_db)), store
            )
            assert via_graph.size == via_db.size


@pytest.fixture()
def hierarchy_db() -> Database:
    """A self-referential employee→manager hierarchy."""
    db = Database("org")
    db.create_table(
        TableSchema(
            "employee",
            [
                Column("emp_id", INT),
                Column("name", TEXT, text_searchable=True),
                Column("manager_id", INT, nullable=True),
            ],
            primary_key="emp_id",
            foreign_keys=[ForeignKey("manager_id", "employee", "emp_id")],
        )
    )
    db.insert("employee", [0, "ceo", None])
    db.insert("employee", [1, "vp-a", 0])
    db.insert("employee", [2, "vp-b", 0])
    db.insert("employee", [3, "eng", 1])
    db.validate_integrity()
    db.ensure_fk_indexes()
    return db


class TestSelfReferentialSchema:
    def test_treealization_replicates_roles(self, hierarchy_db) -> None:
        """A self-loop FK must yield two replicated roles: the manager
        (N:1) and the reports (1:N), like Paper's cites/cited-by."""
        graph = SchemaGraph(hierarchy_db)
        model = ComputedAffinityModel(graph)
        gds = build_gds(graph, "employee", model, max_depth=2)
        depth1_tables = [(c.label, c.table) for c in gds.root.children]
        assert len(depth1_tables) == 2
        assert all(table == "employee" for _label, table in depth1_tables)

    def test_os_walks_up_and_down(self, hierarchy_db) -> None:
        graph = SchemaGraph(hierarchy_db)
        model = ComputedAffinityModel(graph)
        gds = build_gds(graph, "employee", model, max_depth=2)
        store = ImportanceStore.uniform(hierarchy_db)
        backend = DataGraphBackend(hierarchy_db, build_data_graph(hierarchy_db))
        os_tree = generate_os(1, gds, backend, store)  # vp-a
        rows = set(zip(os_tree.depth.tolist(), os_tree.row_id.tolist()))
        assert (0, 1) in rows  # self
        assert (1, 0) in rows  # manager (ceo)
        assert (1, 3) in rows  # report (eng)


class TestThetaExtremes:
    def test_theta_one_keeps_root_only(self, dblp, dblp_store) -> None:
        engine = SizeLEngine(
            dblp.db, {"author": dblp.author_gds()}, dblp_store, theta=1.01
        )
        tree = engine.complete_os("author", 0)
        assert tree.size == 1

    def test_theta_zero_keeps_everything(self, dblp, dblp_store) -> None:
        loose = SizeLEngine(
            dblp.db, {"author": dblp.author_gds()}, dblp_store, theta=0.0
        )
        strict = SizeLEngine(
            dblp.db, {"author": dblp.author_gds()}, dblp_store, theta=0.7
        )
        assert (
            loose.complete_os("author", 2).size
            >= strict.complete_os("author", 2).size
        )


class TestRenderingDegenerates:
    def test_single_node_render(self, dblp_engine) -> None:
        tree = dblp_engine.complete_os("author", 0, depth_limit=0)
        assert tree.size == 1
        assert tree.to_object_summary().render().startswith("Author: ")

    def test_render_null_attribute_skipped(self, orphan_db) -> None:
        graph = SchemaGraph(orphan_db)
        model = ManualAffinityModel({"item": 1.0, "box": 0.9})
        gds = build_gds(graph, "item", model, max_depth=1)
        store = ImportanceStore.uniform(orphan_db)
        backend = DataGraphBackend(orphan_db, build_data_graph(orphan_db))
        tree = generate_os(1, gds, backend, store)
        assert "None" not in tree.to_object_summary().render()
