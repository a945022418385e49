"""Efficiency experiments — Figure 10.

Three drivers:

* :func:`efficiency_experiment` — Figures 10(a)-(d): size-l computation
  time per algorithm × {complete, prelim} source, over a set of OSs and a
  range of l (generation time excluded, exactly as the paper's plots);
* :func:`scalability_experiment` — Figure 10(e): time vs |OS| at fixed l;
* :func:`breakdown_experiment` — Figure 10(f): cost split into OS
  generation (data-graph vs database backends) and size-l computation,
  plus prelim-l OS sizes.

DP runs are guarded by ``dp_budget_nodes``: the paper stopped DP "after 30
min." on moderate-to-large OSs; we skip DP above the budget and report NaN,
keeping bench wall-clock sane while preserving the blow-up story.
"""

from __future__ import annotations

import math
import time
import timeit
from dataclasses import dataclass
from typing import Callable

from repro.core.os_tree import FlatOS, SizeLResult
from repro.core.registry import get_algorithm

SizeLAlgorithm = Callable[[FlatOS, int], SizeLResult]

#: Figure 10's three methods, resolved through the algorithm registry
#: ("optimal" is the paper's name for the DP).
ALGORITHMS: dict[str, SizeLAlgorithm] = {
    "bottom_up": get_algorithm("bottom_up"),
    "top_path": get_algorithm("top_path"),
    "optimal": get_algorithm("dp"),
}


@dataclass(frozen=True)
class EfficiencyRow:
    """One timing observation (seconds; NaN when skipped over budget)."""

    method: str
    source: str
    l: int  # noqa: E741
    seconds: float
    mean_os_size: float


def _time_algorithm(algorithm: SizeLAlgorithm, tree: FlatOS, l: int) -> float:  # noqa: E741
    # timeit pauses the garbage collector around the call: a collection
    # landing inside one ~0.1 ms call would dominate a few-dozen-call mean
    return timeit.timeit(lambda: algorithm(tree, l), number=1)


def efficiency_experiment(
    pairs: list[tuple[FlatOS, FlatOS]],
    l_values: list[int],
    algorithms: dict[str, SizeLAlgorithm] | None = None,
    dp_budget_nodes: int | None = 20_000,
) -> list[EfficiencyRow]:
    """Figures 10(a)-(d): mean size-l computation time per method/source/l.

    ``dp_budget_nodes`` bounds |OS| · l for the optimal method (DP cost is
    Θ(n·l) table cells); pairs exceeding it are skipped (NaN), mirroring
    the paper's 30-minute cut-off for DP on large OSs.
    """
    algorithms = algorithms or ALGORITHMS
    rows: list[EfficiencyRow] = []
    for method_name, algorithm in algorithms.items():
        for source_idx, source_name in ((0, "complete"), (1, "prelim")):
            for l in l_values:  # noqa: E741
                samples: list[float] = []
                sizes: list[int] = []
                skipped = False
                for pair in pairs:
                    tree = pair[source_idx]
                    if (
                        method_name == "optimal"
                        and dp_budget_nodes is not None
                        and tree.size * l > dp_budget_nodes
                    ):
                        skipped = True
                        continue
                    samples.append(_time_algorithm(algorithm, tree, l))
                    sizes.append(tree.size)
                if samples and not skipped:
                    seconds = sum(samples) / len(samples)
                elif samples:
                    seconds = sum(samples) / len(samples)  # partial mean
                else:
                    seconds = math.nan
                rows.append(
                    EfficiencyRow(
                        method=method_name,
                        source=source_name,
                        l=l,
                        seconds=seconds,
                        mean_os_size=(sum(sizes) / len(sizes)) if sizes else math.nan,
                    )
                )
    return rows


def scalability_experiment(
    trees: list[FlatOS],
    l: int = 10,  # noqa: E741
    algorithms: dict[str, SizeLAlgorithm] | None = None,
    dp_budget_nodes: int | None = 50_000,
) -> list[EfficiencyRow]:
    """Figure 10(e): per-OS timing at fixed l, for OSs of graded sizes."""
    algorithms = algorithms or ALGORITHMS
    rows: list[EfficiencyRow] = []
    for tree in sorted(trees, key=lambda t: t.size):
        for method_name, algorithm in algorithms.items():
            if (
                method_name == "optimal"
                and dp_budget_nodes is not None
                and tree.size * l > dp_budget_nodes
            ):
                seconds = math.nan
            else:
                seconds = _time_algorithm(algorithm, tree, l)
            rows.append(
                EfficiencyRow(
                    method=method_name,
                    source="complete",
                    l=l,
                    seconds=seconds,
                    mean_os_size=float(tree.size),
                )
            )
    return rows


@dataclass(frozen=True)
class BreakdownRow:
    """One bar of Figure 10(f): generation + computation cost split."""

    label: str
    l: int  # noqa: E741
    generation_seconds: float
    computation_seconds: float
    initial_os_size: float
    io_accesses: float


def breakdown_experiment(
    engine: "SizeLEngine",  # noqa: F821 - forward ref, avoids import cycle
    rds_table: str,
    row_ids: list[int],
    l_values: list[int],
    algorithms: dict[str, SizeLAlgorithm] | None = None,
) -> list[BreakdownRow]:
    """Figure 10(f): generation-vs-computation cost split per method.

    For each l: complete-OS generation is timed on both backends (data
    graph and database, the latter with I/O counting); prelim-l generation
    on the data-graph backend; then each algorithm is timed on both initial
    OSs.  Returns one row per (generation or computation) bar.
    """
    algorithms = algorithms or {
        "bottom_up": get_algorithm("bottom_up"),
        "top_path": get_algorithm("top_path"),
    }
    # The data graph is an offline index (its build cost is reported by the
    # DGBUILD bench, as in the paper's §6.3); build it before timing so the
    # first generation call does not absorb the one-time construction.
    _ = engine.data_graph
    engine.complete_os(rds_table, row_ids[0], backend="datagraph")  # warm caches
    engine.complete_os(rds_table, row_ids[0], backend="database")
    rows: list[BreakdownRow] = []
    for l in l_values:  # noqa: E741
        gen_stats: dict[str, tuple[float, float, float]] = {}
        complete_trees: list[FlatOS] = []
        prelim_trees: list[FlatOS] = []

        for backend_name in ("datagraph", "database"):
            engine.query_interface.reset_counters()
            start = time.perf_counter()
            trees = [
                engine.complete_os(rds_table, row_id, backend=backend_name)
                for row_id in row_ids
            ]
            elapsed = (time.perf_counter() - start) / len(row_ids)
            io = engine.query_interface.io_accesses / len(row_ids)
            size = sum(t.size for t in trees) / len(trees)
            gen_stats[f"complete[{backend_name}]"] = (elapsed, size, io)
            if backend_name == "datagraph":
                complete_trees = trees

        engine.query_interface.reset_counters()
        start = time.perf_counter()
        for row_id in row_ids:
            prelim, _stats = engine.prelim_os(rds_table, row_id, l)
            prelim_trees.append(prelim)
        elapsed = (time.perf_counter() - start) / len(row_ids)
        size = sum(t.size for t in prelim_trees) / len(prelim_trees)
        gen_stats["prelim[datagraph]"] = (elapsed, size, 0.0)

        engine.query_interface.reset_counters()
        start = time.perf_counter()
        prelim_db_trees = []
        for row_id in row_ids:
            prelim, _stats = engine.prelim_os(rds_table, row_id, l, backend="database")
            prelim_db_trees.append(prelim)
        elapsed = (time.perf_counter() - start) / len(row_ids)
        io = engine.query_interface.io_accesses / len(row_ids)
        size = sum(t.size for t in prelim_db_trees) / len(prelim_db_trees)
        gen_stats["prelim[database]"] = (elapsed, size, io)

        for gen_label, (gen_seconds, mean_size, io) in gen_stats.items():
            source_trees = prelim_trees if gen_label.startswith("prelim") else complete_trees
            for method_name, algorithm in algorithms.items():
                start = time.perf_counter()
                for tree in source_trees:
                    algorithm(tree, l)
                comp_seconds = (time.perf_counter() - start) / len(source_trees)
                rows.append(
                    BreakdownRow(
                        label=f"{method_name} on {gen_label}",
                        l=l,
                        generation_seconds=gen_seconds,
                        computation_seconds=comp_seconds,
                        initial_os_size=mean_size,
                        io_accesses=io,
                    )
                )
    return rows
