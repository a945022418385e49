"""Shared helpers for the benchmark drivers.

Two kinds of driver share this module:

* The figure-level benches (``bench_fig*.py``, ``bench_ablations.py``,
  ``bench_datagraph.py``) run under pytest.  Each prints its series as a
  plain-text table (the same rows/series the paper plots) and also writes
  it under ``benchmarks/results/`` so a full run leaves a reviewable
  artefact next to pytest-benchmark's timing table.
* The subsystem benches (``bench_core_micro``, ``bench_persist``,
  ``bench_service``, ``bench_storage``, ``bench_live``, ``bench_chaos``,
  ``bench_cluster``) are scripts.  Each keeps its workload,
  self-verification and printed report, times repeated passes with
  :func:`measure`, declares its ``--check`` rules as a :class:`Gate`
  table, and hands the rest to :func:`bench_main`: the
  ``--quick/--out/--check`` CLI, the per-mode merge into its
  ``BENCH_*.json``, the :func:`provenance` block every record carries,
  and the rule that any False in a record's ``verified`` exits 1.

Scale: ``REPRO_BENCH_SCALE=paper`` grows the datasets toward the paper's OS
sizes (slower, higher fidelity); the default ``small`` keeps a full
``pytest benchmarks/ --benchmark-only`` run in the ten-minute range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

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


# --------------------------------------------------------------------- #
# The subsystem-bench harness
# --------------------------------------------------------------------- #
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Version of the ``BENCH_*.json`` layout: ``{"schema_version", "modes":
#: {"full" | "quick": record}}``.  A file with another version is
#: replaced, not merged, by the next ``--out``.
SCHEMA_VERSION = 1


def spread(samples: Sequence[float]) -> dict[str, float]:
    """min, median, p10, p90 and n of repeated timings (in their own unit)."""
    values = np.asarray(samples, dtype=float)
    p10, median, p90 = np.percentile(values, (10, 50, 90))
    return {
        "min": float(values.min()),
        "median": float(median),
        "p10": float(p10),
        "p90": float(p90),
        "n": int(values.size),
    }


def measure(
    fn: Callable[[], Any],
    repeats: int,
    *,
    seconds: "Callable[[Any], float] | None" = None,
) -> tuple[dict[str, float], list[Any]]:
    """Time *repeats* calls of *fn*.

    Returns ``(timing, results)``: the :func:`spread` of the per-call
    seconds, and fn's return values ordered fastest call first (so
    ``results[0]`` is the best-of-N pass).  A callable that times its own
    phases passes *seconds* to read each sample from its result instead
    of from the wall clock around the call.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        samples.append((elapsed if seconds is None else seconds(result), result))
    samples.sort(key=lambda sample: sample[0])
    return spread([s for s, _result in samples]), [result for _s, result in samples]


def _git(*args: str) -> "str | None":
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict[str, Any]:
    """Where a record was measured: commit, machine, Python and numpy."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class Gate:
    """One ``--check`` rule on the number at a dotted *path* of a record.

    The run's value is compared with the committed value at the same path
    in the same mode.  The limit is ``committed * scale + offset``; a
    *floor* gate fails below it, a ceiling gate above it.  That covers
    the four shapes in use: >= committed*k, <= committed*k,
    <= committed+d and >= committed-d.
    """

    label: str
    path: str
    floor: bool
    scale: float = 1.0
    offset: float = 0.0


def lookup(record: dict[str, Any], path: str) -> Any:
    """The value at a dotted *path* in *record*, or None when absent."""
    node: Any = record
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def check(
    gates: Sequence[Gate], mode: str, result: dict[str, Any], baseline: dict[str, Any]
) -> bool:
    """Print one CHECK line per gate; False when any gate fails.

    A gate without a committed value in *baseline* (a mode never
    committed, or a gate newer than the baseline) prints SKIPPED and
    passes.
    """
    committed_mode = baseline.get("modes", {}).get(mode, {})
    passed = True
    for gate in gates:
        committed = lookup(committed_mode, gate.path)
        if committed is None:
            print(f"CHECK [{mode}]: {gate.label}: no committed value -> SKIPPED")
            continue
        limit = committed * gate.scale + gate.offset
        current = lookup(result, gate.path)
        ok = current >= limit if gate.floor else current <= limit
        print(
            f"CHECK [{mode}]: {gate.label} {current:.4g} vs committed "
            f"{committed:.4g} ({'floor' if gate.floor else 'ceiling'} "
            f"{limit:.4g}) -> {'OK' if ok else 'REGRESSION'}"
        )
        passed = passed and ok
    return passed


def bench_main(
    doc: str,
    baseline: str,
    run_mode: Callable[[bool], dict[str, Any]],
    gates: Sequence[Gate],
    argv: "list[str] | None" = None,
) -> int:
    """The one command line of the subsystem benches.

    Runs ``run_mode(quick)``, merges its record (plus :func:`provenance`)
    into ``--out`` under the mode's key, then exits 1 when any value in
    the record's ``verified`` is False, or when ``--check BASELINE`` finds
    a :class:`Gate` regression.  *baseline* names the repo-root
    ``BENCH_*.json`` that ``--out`` defaults to.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small fixture (CI smoke mode)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / baseline,
        help=f"JSON output path (merged per mode; default: repo-root {baseline})",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against a committed baseline; exit 1 when a gate fails",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    print(f"===== {Path(parser.prog).stem} [{mode}] =====")
    result = {"provenance": provenance(), **run_mode(args.quick)}

    payload: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "modes": {}}
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text(encoding="utf-8"))
            if existing.get("schema_version") == SCHEMA_VERSION:
                payload = existing
        except json.JSONDecodeError:
            pass
    payload["modes"][mode] = result
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    verified = result.get("verified", {})
    if not all(verified.values()):
        print(f"FAIL: verification failed: {verified}")
        return 1
    if args.check is None:
        return 0
    committed = json.loads(args.check.read_text(encoding="utf-8"))
    return 0 if check(gates, mode, result, committed) else 1
