"""Shared helpers for the benchmark drivers.

Every figure-level bench prints its series as a plain-text table (the same
rows/series the paper plots) and also writes it under
``benchmarks/results/`` so a full run leaves a reviewable artefact next to
pytest-benchmark's timing table.

Scale: ``REPRO_BENCH_SCALE=paper`` grows the datasets toward the paper's OS
sizes (slower, higher fidelity); the default ``small`` keeps a full
``pytest benchmarks/ --benchmark-only`` run in the ten-minute range.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.engine import SizeLEngine
from repro.core.os_tree import FlatOS
from repro.util.rng import derive_rng

# Git-ignored scratch area (see .gitignore): every emit() lands here, so
# full benchmark runs leave reviewable artefacts without dirtying the tree.
# Override with REPRO_BENCH_RESULTS to collect artefacts elsewhere (CI).
RESULTS_DIR = Path(
    os.environ.get("REPRO_BENCH_RESULTS", Path(__file__).parent / "results")
)

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

# Judge-panel calibration (see EXPERIMENTS.md "Evaluator simulation"):
# DBLP judges disagree with authority flow more (bibliographic taste);
# TPC-H judges were handed value statistics by the paper's authors and
# agreed closely with value-driven ranking — hence the lower noise.
from repro.evaluation.evaluators import EvaluatorConfig  # noqa: E402

DBLP_JUDGE_CONFIG = EvaluatorConfig(noise_sigma=0.25, depth1_bias=2.5)
TPCH_JUDGE_CONFIG = EvaluatorConfig(noise_sigma=0.08, depth1_bias=2.5)

#: l grids (the paper's x-axes).
L_EFFECTIVENESS = [5, 10, 15, 20, 25, 30]
L_QUALITY = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
L_EFFICIENCY = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]

if BENCH_SCALE == "paper":
    N_SAMPLE_OS = 10
    N_DBLP_JUDGES = 11
    N_TPCH_JUDGES = 8
else:
    N_SAMPLE_OS = 6
    N_DBLP_JUDGES = 6
    N_TPCH_JUDGES = 4
    L_QUALITY = [5, 10, 20, 30, 40, 50]
    L_EFFICIENCY = [5, 10, 20, 30, 40, 50]


def emit(name: str, text: str) -> None:
    """Print a series table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def sample_subjects(
    engine: SizeLEngine,
    rds_table: str,
    count: int,
    min_size: int,
    seed: int = 7,
    candidate_pool: int = 200,
) -> list[int]:
    """Pick *count* Data Subjects whose complete OS has at least *min_size*
    tuples.

    Candidates are taken in descending global-importance order (prominent
    subjects — the kind the paper's evaluation uses, e.g. Aver|OS| ≈ 1116
    for DBLP authors) and then sampled uniformly, so runs are deterministic
    under the seed.
    """
    table = engine.db.table(rds_table)
    scores = engine.store.array(rds_table)
    order = np.argsort(scores)[::-1][:candidate_pool]
    qualifying: list[int] = []
    for row_id in order:
        size = engine.complete_os(rds_table, int(row_id)).size
        if size >= min_size:
            qualifying.append(int(row_id))
        if len(qualifying) >= count * 3:
            break
    if len(qualifying) < count:
        qualifying = [int(r) for r in order[: max(count, len(qualifying))]]
    rng = derive_rng(seed, "bench-sample", rds_table)
    chosen = rng.choice(len(qualifying), size=min(count, len(qualifying)), replace=False)
    return [qualifying[int(i)] for i in chosen]


def os_pairs(
    engine: SizeLEngine, rds_table: str, row_ids: list[int], prelim_l: int
) -> list[tuple[FlatOS, FlatOS]]:
    """(complete OS, prelim-l OS) pairs for the quality/efficiency drivers."""
    pairs = []
    for row_id in row_ids:
        complete = engine.complete_os(rds_table, row_id)
        prelim, _stats = engine.prelim_os(rds_table, row_id, prelim_l)
        pairs.append((complete, prelim))
    return pairs


def mean_os_size(pairs: list[tuple[FlatOS, FlatOS]]) -> float:
    return float(np.mean([complete.size for complete, _prelim in pairs]))
