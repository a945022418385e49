"""Smoke test of the end-to-end benchmark: every workload, tiny and short.

Each workload runs at a tiny dataset scale with 1 s windows, untraced and
traced, against a real ``repro serve`` subprocess.  The test pins the
benchmark's own contract: every metric ``BENCHMARK.json`` names comes out
of a run, no request fails, and every sampled answer equals the reference.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run
from loadgen import read_response
from workloads import WORKLOADS

CONTRACT = json.loads((Path(run.REPO) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_reader_handles_head_and_body_in_separate_reads():
    # repro serve writes the headers and the body as two segments
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 12\r\nX-Repro-Request-Id: r-1\r\n\r\n"
        )
        pending = asyncio.ensure_future(read_response(reader))
        await asyncio.sleep(0)
        assert not pending.done()  # the head alone is not a response
        reader.feed_data(b'{"ok": ')
        await asyncio.sleep(0)
        reader.feed_data(b"true}")
        return await pending

    response = asyncio.run(scenario())
    assert response.status == 200
    assert response.headers["x-repro-request-id"] == "r-1"
    assert response.json() == {"ok": True}


def test_contract_names_exactly_the_five_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


def test_every_workload_runs_clean(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WARMUP_OPS", 2)

    def smoke(name: str) -> dict:
        work_dir = tmp_path / name
        work_dir.mkdir()
        return run.run_workload(
            WORKLOADS[name].tiny(), seed=7, seconds=1.0, trace=True, setups=1,
            work_dir=work_dir,
        )

    # the runs are independent and nothing here asserts a timing, so they
    # share the CPUs: one server start-up alone takes most of a second
    with ThreadPoolExecutor(len(WORKLOADS)) as pool:
        results = dict(zip(WORKLOADS, pool.map(smoke, WORKLOADS)))
    names = {m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    for name, result in results.items():
        produced = {**result["end_to_end"], **result["per_layer"]}
        assert set(produced) == names, name
        assert all(type(value) is float for value in produced.values()), name
        assert result["failed_ratio"] == 0, name
        assert result["trace_ok"], name
        assert result["compared"] > 0 and result["mismatches"] == 0, name
