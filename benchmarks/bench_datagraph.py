"""DGBUILD — Section 6.3 in-text: data-graph construction cost and size.

The paper: "The DBLP and TPC-H data-graphs take only 17 sec. and 128 sec.
to generate and occupy 150MB and 500MB" (2011 hardware, full datasets).
Our datasets are scaled down; the bench records build time and the
footprint so the ratio to database size can be compared.
"""

from __future__ import annotations

import pytest

from benchlib import emit
from repro.datagraph.builder import build_data_graph


@pytest.mark.benchmark(group="datagraph")
def test_dgbuild_dblp(benchmark, dblp_bench) -> None:
    graph = benchmark(build_data_graph, dblp_bench.db)
    emit(
        "dgbuild_dblp",
        f"rows={dblp_bench.db.total_rows}  fk_tuple_edges={graph.edge_count}  "
        f"bytes={graph.size_bytes()}",
    )
    assert graph.edge_count > 0


@pytest.mark.benchmark(group="datagraph")
def test_dgbuild_tpch(benchmark, tpch_bench) -> None:
    graph = benchmark(build_data_graph, tpch_bench.db)
    emit(
        "dgbuild_tpch",
        f"rows={tpch_bench.db.total_rows}  fk_tuple_edges={graph.edge_count}  "
        f"bytes={graph.size_bytes()}",
    )
    assert graph.edge_count > 0


@pytest.mark.benchmark(group="generation")
def test_os_generation_datagraph_backend(benchmark, dblp_engine_bench) -> None:
    """Raw Algorithm-5 throughput on the data-graph backend."""
    engine = dblp_engine_bench
    tree = benchmark(engine.complete_os, "author", 0, "datagraph")
    assert tree.size > 0


@pytest.mark.benchmark(group="generation")
def test_os_generation_database_backend(benchmark, dblp_engine_bench) -> None:
    """Raw Algorithm-5 throughput issuing per-join queries ("directly from
    the database")."""
    engine = dblp_engine_bench
    tree = benchmark(engine.complete_os, "author", 0, "database")
    assert tree.size > 0
