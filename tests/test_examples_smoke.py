"""Smoke tests: every example script must run end-to-end.

Each is executed in-process with a patched ``__main__`` guard via
``runpy`` so coverage tools see them, and one stable line of its output
is pinned (timings and temp paths vary between runs; answers do not).
"""

from __future__ import annotations

import runpy
import sys
import tempfile
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example script: {path}"
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


def test_quickstart(capsys) -> None:
    out = _run_example("quickstart.py", capsys)
    assert "Author: Christos Faloutsos" in out
    assert "complete OS had" in out


def test_custom_database(capsys) -> None:
    out = _run_example("custom_database.py", capsys)
    assert "Student: Dana Quill" in out
    assert "Course:" in out
    assert "Computed Student G_DS" in out


def test_algorithm_comparison(capsys) -> None:
    out = _run_example("algorithm_comparison.py", capsys)
    assert "optimal (DP)" in out
    assert "quality %" in out


def test_dblp_faloutsos(capsys) -> None:
    out = _run_example("dblp_faloutsos.py", capsys)
    assert "top_path on prelim  : Im(S) =   222.51" in out


def test_dpa_subject_access(capsys, monkeypatch, tmp_path) -> None:
    # the CSV deliverable goes to pytest's temp dir, not the system one
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = _run_example("dpa_subject_access.py", capsys)
    assert "Executive summary (size-10):\nCustomer: Customer#000007" in out
    assert "..Order: 1995, P, 109173.13\n..Order: 1995, P, 208387.66\n" in out


def test_tpch_customer_report(capsys) -> None:
    out = _run_example("tpch_customer_report.py", capsys)
    assert "Value-blind (G_A2) summary shares 7/12 tuples" in out
