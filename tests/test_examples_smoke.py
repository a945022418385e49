"""Smoke tests: the fast example scripts must run end-to-end.

Only the quick examples run here (the full set is exercised manually /
in benches); each is executed in-process with a patched ``__main__`` guard
via ``runpy`` so coverage tools see them.
"""

from __future__ import annotations

import runpy
import sys
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
