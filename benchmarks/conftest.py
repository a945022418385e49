"""Session fixtures for the benchmark drivers: bench-scale datasets,
the four G_A settings per database, and engines."""

from __future__ import annotations

import pytest

from benchlib import BENCH_SCALE
from repro.core.builder import EngineBuilder
from repro.datasets.dblp import DBLPConfig, generate_dblp
from repro.datasets.tpch import TPCHConfig, generate_tpch
from repro.ranking.objectrank import (
    DAMPING_D1,
    DAMPING_D2,
    DAMPING_D3,
    compute_objectrank,
)
from repro.ranking.valuerank import compute_valuerank


@pytest.fixture(scope="session")
def dblp_bench():
    if BENCH_SCALE == "paper":
        config = DBLPConfig(n_authors=400, n_papers=1600, seed=7)
    else:
        config = DBLPConfig(n_authors=300, n_papers=800, seed=7)
    return generate_dblp(config)


@pytest.fixture(scope="session")
def dblp_settings(dblp_bench):
    """The paper's four ranking settings (Section 6): G_A1 × {d1, d2, d3}
    and G_A2-d1."""
    ga1 = dblp_bench.ga1()
    ga2 = dblp_bench.ga2()
    return {
        "GA1-d1": compute_objectrank(dblp_bench.db, ga1, damping=DAMPING_D1),
        "GA1-d2": compute_objectrank(dblp_bench.db, ga1, damping=DAMPING_D2),
        "GA1-d3": compute_objectrank(dblp_bench.db, ga1, damping=DAMPING_D3),
        "GA2-d1": compute_objectrank(dblp_bench.db, ga2, damping=DAMPING_D1),
    }


@pytest.fixture(scope="session")
def dblp_engine_bench(dblp_bench, dblp_settings):
    return EngineBuilder.from_dataset(dblp_bench, store=dblp_settings["GA1-d1"]).build()


@pytest.fixture(scope="session")
def tpch_bench():
    scale = 0.004 if BENCH_SCALE == "paper" else 0.003
    return generate_tpch(TPCHConfig(scale_factor=scale, seed=11))


@pytest.fixture(scope="session")
def tpch_settings(tpch_bench):
    ga1 = tpch_bench.ga1()
    ga2 = tpch_bench.ga2()
    return {
        "GA1-d1": compute_valuerank(tpch_bench.db, ga1, damping=DAMPING_D1),
        "GA1-d2": compute_valuerank(tpch_bench.db, ga1, damping=DAMPING_D2),
        "GA1-d3": compute_valuerank(tpch_bench.db, ga1, damping=DAMPING_D3),
        "GA2-d1": compute_valuerank(tpch_bench.db, ga2, damping=DAMPING_D1),
    }


@pytest.fixture(scope="session")
def tpch_engine_bench(tpch_bench, tpch_settings):
    return EngineBuilder.from_dataset(tpch_bench, store=tpch_settings["GA1-d1"]).build()
