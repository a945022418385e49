"""Tests of the subsystem-bench harness in :mod:`benchlib`.

The gate rules, the SKIPPED and ``verified`` exits of :func:`bench_main`,
the order of :func:`measure`'s spread, and — against the committed
``BENCH_*.json`` files — that every bench's gate paths resolve, so a typo
in a path fails here instead of silently skipping its gate.
"""

from __future__ import annotations

import importlib
import json

import pytest

from benchlib import REPO_ROOT, Gate, bench_main, check, lookup, measure

#: The subsystem benches that run through bench_main.
BENCHES = (
    "bench_core_micro",
    "bench_persist",
    "bench_service",
    "bench_storage",
    "bench_live",
    "bench_chaos",
    "bench_cluster",
)


def _record(value: float) -> dict:
    return {"metric": {"value": value}}


#: A committed value of 10 under each of the four rule shapes; the limits
#: are 5, 20, 10.5 and 9.75, all exact in binary floating point.
@pytest.mark.parametrize(
    ("gate", "at_limit", "past_limit"),
    [
        (Gate("x", "metric.value", floor=True, scale=0.5), 5.0, 4.99),
        (Gate("x", "metric.value", floor=False, scale=2.0), 20.0, 20.01),
        (Gate("x", "metric.value", floor=False, offset=0.5), 10.5, 10.51),
        (Gate("x", "metric.value", floor=True, offset=-0.25), 9.75, 9.74),
    ],
)
def test_each_rule_passes_at_its_limit_and_fails_past_it(gate, at_limit, past_limit):
    committed = {"modes": {"quick": _record(10.0)}}
    assert check([gate], "quick", _record(at_limit), committed)
    assert not check([gate], "quick", _record(past_limit), committed)


def test_a_missing_committed_value_is_skipped_and_passes(capsys):
    committed = {"modes": {"quick": _record(10.0)}}
    newer_gate = [Gate("x", "metric.other", floor=True)]
    assert check(newer_gate, "quick", {"metric": {"other": 0.0}}, committed)
    # a mode that was never committed skips every gate
    assert check([Gate("x", "metric.value", floor=True)], "full", _record(0.0), committed)
    assert capsys.readouterr().out.count("SKIPPED") == 2


def test_a_false_in_verified_exits_1_after_writing_the_record(tmp_path):
    out = tmp_path / "BENCH_x.json"

    def run_mode(quick: bool) -> dict:
        return {"verified": {"answers_match": True, "rejects_corrupt": quick}}

    assert bench_main("x", "BENCH_x.json", run_mode, (), ["--out", str(out)]) == 1
    assert bench_main("x", "BENCH_x.json", run_mode, (), ["--quick", "--out", str(out)]) == 0
    modes = json.loads(out.read_text(encoding="utf-8"))["modes"]
    assert set(modes) == {"full", "quick"}  # merged per mode
    assert all("provenance" in record for record in modes.values())


def test_check_exits_1_on_a_regression(tmp_path):
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps({"modes": {"quick": _record(10.0)}}), encoding="utf-8")
    gates = (Gate("x", "metric.value", floor=True, scale=0.5),)
    argv = ["--quick", "--out", str(tmp_path / "run.json"), "--check", str(committed)]
    assert bench_main("x", "BENCH_x.json", lambda quick: _record(5.0), gates, argv) == 0
    assert bench_main("x", "BENCH_x.json", lambda quick: _record(4.0), gates, argv) == 1


def test_measure_reports_an_ordered_spread_fastest_first():
    samples = iter([0.3, 0.1, 0.5, 0.2, 0.4])
    timing, results = measure(lambda: next(samples), 5, seconds=lambda s: s)
    assert timing["n"] == 5
    assert timing["min"] <= timing["p10"] <= timing["median"] <= timing["p90"]
    assert (timing["min"], timing["median"]) == (0.1, 0.3)
    assert results == [0.1, 0.2, 0.3, 0.4, 0.5]

    wall, _ = measure(lambda: sum(range(1000)), 7)
    assert wall["n"] == 7
    assert 0 < wall["min"] <= wall["p10"] <= wall["median"] <= wall["p90"]


@pytest.mark.parametrize("name", BENCHES)
def test_every_gate_path_resolves_in_every_committed_mode(name):
    bench = importlib.import_module(name)
    committed = json.loads((REPO_ROOT / bench.BASELINE).read_text(encoding="utf-8"))
    assert bench.GATES and set(committed["modes"]) == {"full", "quick"}
    for mode, record in committed["modes"].items():
        for gate in bench.GATES:
            value = lookup(record, gate.path)
            assert isinstance(value, (int, float)), (bench.BASELINE, mode, gate.path)
