"""Tests for the open algorithm/backend registries (plugin extension point)."""

from __future__ import annotations

import pytest

from repro.core.generation import DataGraphBackend
from repro.core.options import QueryOptions, Source
from repro.core.os_tree import FlatOS, SizeLResult
from repro.core.registry import (
    ALGORITHM_REGISTRY,
    BACKEND_REGISTRY,
    Registry,
    algorithm_names,
    backend_names,
    get_algorithm,
    register_algorithm,
    register_backend,
)
from repro.errors import RegistryError, SummaryError


def first_l_size_l(tree: FlatOS, l: int) -> SizeLResult:  # noqa: E741
    """A deliberately naive plugin: keep the first l nodes in BFS order."""
    assert isinstance(tree, FlatOS)  # plugins receive the columnar OS
    uids = set(range(min(l, tree.size)))
    subset = tree.materialise_subset(uids)
    return SizeLResult(
        summary=subset,
        selected_uids=uids,
        importance=subset.total_importance(),
        algorithm="first_l",
        l=l,
        stats={},
    )


@pytest.fixture
def first_l_plugin():
    register_algorithm("first_l", first_l_size_l)
    yield "first_l"
    ALGORITHM_REGISTRY.unregister("first_l")


class TestRegistry:
    def test_builtin_algorithms_registered(self) -> None:
        assert {"dp", "bottom_up", "top_path", "top_path_optimized"} <= set(
            algorithm_names()
        )

    def test_builtin_backends_registered(self) -> None:
        assert {"datagraph", "database"} <= set(backend_names())

    def test_register_get_roundtrip(self) -> None:
        registry: Registry[int] = Registry("widget")
        registry.register("one", 1)
        assert registry.get("one") == 1
        assert "one" in registry
        assert registry.names() == ["one"]

    def test_duplicate_name_rejected(self) -> None:
        registry: Registry[int] = Registry("widget")
        registry.register("one", 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("one", 2)
        assert registry.get("one") == 1  # original untouched

    def test_replace_overrides(self) -> None:
        registry: Registry[int] = Registry("widget")
        registry.register("one", 1)
        registry.register("one", 2, replace=True)
        assert registry.get("one") == 2

    def test_bad_name_rejected(self) -> None:
        registry: Registry[int] = Registry("widget")
        with pytest.raises(RegistryError, match="non-empty string"):
            registry.register("", 1)
        with pytest.raises(RegistryError, match="non-empty string"):
            registry.register(None, 1)  # type: ignore[arg-type]

    def test_unknown_lookup_lists_choices(self) -> None:
        with pytest.raises(SummaryError, match="unknown algorithm 'magic'"):
            get_algorithm("magic")

    def test_duplicate_builtin_algorithm_rejected(self) -> None:
        with pytest.raises(RegistryError):
            register_algorithm("dp", first_l_size_l)

    def test_decorator_form(self) -> None:
        @register_algorithm("decorated_tmp")
        def decorated(tree, l):  # noqa: E741
            return first_l_size_l(tree, l)

        try:
            assert get_algorithm("decorated_tmp") is decorated
        finally:
            ALGORITHM_REGISTRY.unregister("decorated_tmp")

    def test_unregister_unknown(self) -> None:
        with pytest.raises(SummaryError, match="unknown algorithm"):
            ALGORITHM_REGISTRY.unregister("never_registered")


class TestAlgorithmPluginEndToEnd:
    """A third-party algorithm is selectable without touching repro source."""

    def test_engine_size_l(self, dblp_engine, first_l_plugin) -> None:
        result = dblp_engine.run(
            "author", 0, QueryOptions(l=5, algorithm="first_l", source=Source.COMPLETE)
        )
        assert result.size == 5
        assert result.algorithm == "first_l"

    def test_session_keyword_query(self, dblp_engine, first_l_plugin) -> None:
        from repro.session import Session

        session = Session(dblp_engine)
        results = session.keyword_query(
            "Faloutsos", options=QueryOptions(l=4, algorithm="first_l")
        )
        assert len(results) == 3
        assert all(r.result.algorithm == "first_l" for r in results)

    def test_cli_parser_choices_derive_from_registry(self, first_l_plugin) -> None:
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["query", "--keywords", "x", "--algorithm", "first_l"]
        )
        assert args.algorithm == "first_l"

    def test_cli_query_runs_plugin(self, first_l_plugin, capsys) -> None:
        from repro.cli import main

        code = main(
            [
                "--scale", "0.2",
                "query",
                "--keywords", "Faloutsos",
                "--l", "4",
                "--algorithm", "first_l",
            ]
        )
        assert code == 0
        assert "result 1" in capsys.readouterr().out


class TestBackendPluginEndToEnd:
    def test_custom_backend_selected_by_name(self, dblp_engine) -> None:
        created = []

        @register_backend("recording_datagraph")
        def recording(engine):
            backend = DataGraphBackend(engine.db, engine.data_graph)
            created.append(backend)
            return backend

        try:
            result = dblp_engine.run(
                "author",
                0,
                QueryOptions(l=5, source=Source.COMPLETE, backend="recording_datagraph"),
            )
            assert created, "factory was never invoked"
            assert result.stats.backend == "recording_datagraph"
            assert result.size == 5
        finally:
            BACKEND_REGISTRY.unregister("recording_datagraph")

    def test_unknown_backend_message(self, dblp_engine) -> None:
        # options are checked when built, so an unknown backend reaches a
        # run only by being unregistered afterwards
        register_backend("ramdisk", BACKEND_REGISTRY.get("datagraph"))
        try:
            options = QueryOptions(l=5, backend="ramdisk")
        finally:
            BACKEND_REGISTRY.unregister("ramdisk")
        with pytest.raises(SummaryError, match="unknown backend 'ramdisk'"):
            dblp_engine.run("author", 0, options)
