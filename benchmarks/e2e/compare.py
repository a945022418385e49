"""Compare two sets of end-to-end result files, metric by metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` result.  For every workload and
end-to-end metric the two sets' medians and quartiles are printed with a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` when either set's spread (IQR / median) exceeds the
  bound, unless every B run reads better than every A run;
* ``worse`` / ``better`` when B's median moved past the bound;
* ``within`` otherwise.

Exits 1 if any pair is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _load(paths: list[str]) -> list[dict[str, Any]]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """(verdict, relative change of B's median from A's)."""
    a1, a2, a3 = _quartiles(a)
    b1, b2, b3 = _quartiles(b)
    change = (b2 - a2) / a2 if a2 else 0.0
    gain = -change if better == "lower" else change
    all_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if (a3 - a1) / abs(a2 or 1) > bound or (b3 - b1) / abs(b2 or 1) > bound:
        return ("better" if all_better else "unresolved"), change
    if gain < -bound:
        return "worse", change
    if gain > bound:
        return "better", change
    return "within", change


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    set_a, set_b = _load(argv[:split]), _load(argv[split + 1:])
    if not set_a or not set_b:
        print("error: both sets need at least one result file", file=sys.stderr)
        return 2
    table = {m["name"]: m for m in json.loads(CONTRACT.read_text(encoding="utf-8"))["end_to_end"]}
    print(f"{'workload':12s} {'metric':15s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    bad = 0
    workloads = [w for w in set_a[0]["workloads"] if all(w in r["workloads"] for r in set_a + set_b)]
    for workload in workloads:
        for metric, spec in table.items():
            a = [r["workloads"][workload]["end_to_end"][metric] for r in set_a]
            b = [r["workloads"][workload]["end_to_end"][metric] for r in set_b]
            result, change = verdict(a, b, spec["bound"], spec["better"])
            bad += result in ("worse", "unresolved")
            qa, qb = _quartiles(a), _quartiles(b)
            print(
                f"{workload:12s} {metric:15s} "
                f"{qa[1]:10.4g} [{qa[0]:8.4g}, {qa[2]:8.4g}] "
                f"{qb[1]:10.4g} [{qb[0]:8.4g}, {qb[2]:8.4g}] "
                f"{change * 100:+7.2f}% {spec['bound'] * 100:5.0f}%  {result}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
