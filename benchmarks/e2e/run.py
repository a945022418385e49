"""The end-to-end benchmark: five HTTP workloads against a real ``repro serve``.

    python3 benchmarks/e2e/run.py --workload warm-zipf --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 7 --out R.json [--trace] [--workload NAME ...]

For each workload the benchmark builds the dataset's reference
:class:`~repro.Session` in this process, then:

1. starts ``repro serve`` three times, timing spawn -> first 200 on
   a fixed probe request (``setup_s`` is the median); the last server stays
   up for the window;
2. warms it (untimed), then drives the seeded request stream over one
   keep-alive connection for ``--seconds`` (write-mix adds an open-loop
   writer on a second connection);
3. stops the server and checks the sampled answers against the reference.

``--trace`` (or ``--trace 1``) then repeats the window against a server
launched through ``traced_serve.py`` and reports the per-layer metrics;
end-to-end metrics always come from the untraced window.

One line per metric is printed as ``workload metric value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer ones with ``--trace``).  The exit status is 1 when any answer
is wrong or any request failed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from loadgen import Connection, Op, OpRecord, Recorder, closed_loop, open_loop
from server import CpuProbe, Server, SetupTiming, hwm_kb, process_tree

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK_DIR = REPO / ".bench_build" / "e2e"
WARMUP_OPS = 20
#: server set-ups timed per workload; setup_s is their median
SETUPS = 3


@dataclass
class Window:
    """Everything one measured window produced."""

    records: list[OpRecord]
    bodies: dict[tuple, bytes]
    errors: int
    seconds: float
    server_cpu_ms: float
    #: server CPU (ms) between consecutive read completions, in order
    read_cpu_ms: list[float]
    client_cpu_ms: float
    rss_mb: float
    cache_delta: dict[str, int]
    #: write-mix: every committed transaction body, in commit order
    committed: list[bytes]
    #: write-mix: the whole pool re-queried after the writer stopped
    final_bodies: dict[tuple, bytes]

    @property
    def reads(self) -> list[OpRecord]:
        return [r for r in self.records if r.kind == "read" and r.status == 200]

    @property
    def writes(self) -> list[OpRecord]:
        return [r for r in self.records if r.kind == "write" and r.status == 200]

    @property
    def failed(self) -> int:
        return self.errors + sum(r.status != 200 for r in self.records)

    @property
    def attempted(self) -> int:
        return self.errors + len(self.records)


def quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of *values*."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


# --------------------------------------------------------------------- #
# Server lifecycle
# --------------------------------------------------------------------- #
def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


async def _send_ok(
    conn: Connection, method: str, path: str, payload: "bytes | None", request_id: str
) -> bytes:
    """An untimed request that must answer 200 (warm-up, stats, re-query)."""
    response = await conn.request(method, path, payload, request_id)
    if response.status != 200:
        raise RuntimeError(f"{request_id} answered {response.status}: {response.body[:300]!r}")
    return response.body


async def _probe(host: str, port: int, op: Op, request_id: str) -> None:
    conn = await Connection.open(host, port)
    try:
        await _send_ok(conn, "POST", op.path, op.payload, request_id)
    finally:
        await conn.close()


def snapshot_dir(workload: Any, work_dir: Path) -> Path:
    """The workload's precomputed snapshot, built once per work dir (untimed)."""
    path = work_dir / f"{workload.database}-s{workload.scale}-{workload.table}.snapshot"
    if not path.is_dir():
        partial = path.with_suffix(".partial")
        subprocess.run(
            [sys.executable, "-m", "repro", *workload.precompute_args(str(partial)), "--overwrite"],
            env=_env(), check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        partial.rename(path)
    return path


def start_server(
    plan: Any, work_dir: Path, tag: str, cpu: "int | None", spans: "Path | None" = None
) -> tuple[Server, SetupTiming]:
    """Spawn a server (on *cpu*) and time it to its first 200 on the probe request."""
    workload = plan.workload
    args = workload.serve_args()
    if workload.snapshot:
        args += ["--snapshot", str(snapshot_dir(workload, work_dir))]
    if spans is None:
        argv = [sys.executable, "-m", "repro", *args]
    else:
        argv = [sys.executable, str(HERE / "traced_serve.py"), str(spans), *args]
    server = Server(argv, _env(), work_dir, tag, cpu)
    try:
        server.start()
        asyncio.run(_probe(*server.host_port, plan.probe(), f"{tag}-probe"))
        answered_ns = time.monotonic_ns()
    except BaseException:
        server.stop()
        raise
    return server, SetupTiming(
        (server.ready_ns - server.spawned_ns) / 1e9, (answered_ns - server.ready_ns) / 1e6
    )


# --------------------------------------------------------------------- #
# The measured window
# --------------------------------------------------------------------- #
async def _drive(plan: Any, server: Server, seconds: float, tag: str) -> Window:
    workload = plan.workload
    host, port = server.host_port
    tree = process_tree(server.process.pid)
    stats = f"/v1/stats?dataset={workload.database}"
    reader = await Connection.open(host, port)
    writer = await Connection.open(host, port) if workload.write_rate else None
    try:
        if workload.batch_warm:
            await _send_ok(reader, "POST", "/v1/batch", plan.batch_payload(), f"{tag}-warm-batch")
        for i, op in enumerate(plan.warmup(WARMUP_OPS)):
            await _send_ok(reader, "POST", op.path, op.payload, f"{tag}-warm-{i}")
        write_ops = plan.writes() if writer is not None else None
        committed: list[bytes] = []
        if writer is not None:
            # one full transaction cycle activates the live state, untimed
            for i in range(3):
                op = next(write_ops)
                await _send_ok(writer, "POST", op.path, op.payload, f"{tag}-warm-write-{i}")
                committed.append(op.payload)
        before = json.loads(await _send_ok(reader, "GET", stats, None, f"{tag}-stats-0"))["cache"]

        recorder = Recorder(tag)
        probe = CpuProbe(tree)
        # the server is idle between a response and the next closed-loop
        # send, so consecutive readings bracket one read's CPU (plus any
        # write the open-loop writer overlapped with it)
        cpu_at_read = [probe.read()]
        recorder.on_read = lambda: cpu_at_read.append(probe.read())
        gc.collect()
        gc.freeze()
        gc.disable()  # no collector pauses inside the client's timings
        try:
            client0 = time.process_time()
            start = time.monotonic_ns()
            until = start + int(seconds * 1e9)
            loops = [closed_loop(reader, plan.reads(), recorder, until)]
            if writer is not None:
                loops.append(
                    open_loop(writer, write_ops, recorder, workload.write_rate, start, until)
                )
            await asyncio.gather(*loops)
            elapsed = (time.monotonic_ns() - start) / 1e9
            cpu_end, client1 = probe.read(), time.process_time()
        finally:
            gc.enable()
            gc.unfreeze()
            probe.close()
        rss_mb = hwm_kb(tree) / 1024
        after = json.loads(await _send_ok(reader, "GET", stats, None, f"{tag}-stats-1"))["cache"]

        final: dict[tuple, bytes] = {}
        if writer is not None:
            committed += [
                r.op.payload for r in recorder.records if r.kind == "write" and r.status == 200
            ]
            for index in range(len(plan.pool)):
                op = plan.read_op(index, workload.l_values[0])
                final[op.key] = await _send_ok(
                    reader, "POST", op.path, op.payload, f"{tag}-final-{index}"
                )
    finally:
        await reader.close()
        if writer is not None:
            await writer.close()
    return Window(
        records=recorder.records,
        bodies=recorder.bodies,
        errors=recorder.errors,
        seconds=elapsed,
        server_cpu_ms=(cpu_end - cpu_at_read[0]) / 1e6,
        read_cpu_ms=[(b - a) / 1e6 for a, b in zip(cpu_at_read, cpu_at_read[1:])],
        client_cpu_ms=(client1 - client0) * 1000,
        rss_mb=rss_mb,
        cache_delta={key: value - before.get(key, 0) for key, value in after.items()},
        committed=committed,
        final_bodies=final,
    )


def verify(plan: Any, window: Window) -> tuple[int, int]:
    """(answers compared, mismatches) against the reference Session.

    Read-only workloads compare the first answer of every distinct request
    in the window.  write-mix replays the committed transactions on the
    reference, then compares the whole pool re-queried after the window;
    each of those answers must report ``dataset_version`` equal to the
    number of commits.
    """
    if plan.workload.write_rate:
        plan.replay(window.committed)
        bodies = window.final_bodies
    else:
        bodies = window.bodies
    mismatches = 0
    for key, raw in bodies.items():
        body = json.loads(raw)
        if plan.workload.write_rate and body["dataset_version"] != len(window.committed):
            mismatches += 1
        elif plan.answer(body) != plan.expected(key):
            mismatches += 1
    return len(bodies), mismatches


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def end_to_end(setups: list[SetupTiming], window: Window) -> dict[str, float]:
    reads = window.reads
    p50, p90 = quantiles([(r.end_ns - r.start_ns) / 1e6 for r in reads])
    return {
        "setup_s": statistics.median(s.setup_s for s in setups),
        "p50_ms": p50,
        "p90_ms": p90,
        "throughput_rps": len(reads) / window.seconds,
        "rss_mb": window.rss_mb,
    }


def cpu_per_op(window: Window, deck: int) -> float:
    """Median server CPU per read, over the window's whole decks.

    Whole decks request the same multiset for every seed.  The median,
    not the mean: a full garbage collection in the server (50-100 ms,
    zero to two per window) would swing a mean by 10-20%.
    """
    per_read = window.read_cpu_ms
    if len(per_read) >= deck:
        per_read = per_read[: len(per_read) // deck * deck]
    return statistics.median(per_read) if per_read else 0.0


def untraced_layers(setup: SetupTiming, window: Window, deck: int) -> dict[str, float]:
    """Per-layer numbers taken from the untraced window: set-up, server
    CPU, the load generator and the open-loop writer."""
    writes = window.writes
    write_p50, write_p90 = quantiles([(r.end_ns - r.due_ns) / 1e6 for r in writes])
    return {
        "setup.ready_s": setup.ready_s,
        "setup.first_answer_ms": setup.first_answer_ms,
        "cpu.ms_per_op": cpu_per_op(window, deck),
        "cpu.mean_ms_per_op": window.server_cpu_ms / max(1, len(window.reads) + len(writes)),
        "client.self_us": window.client_cpu_ms * 1000 / max(1, len(window.records)),
        "client.lag_ms": (
            statistics.fmean((r.start_ns - r.due_ns) / 1e6 for r in writes) if writes else 0.0
        ),
        "write.p50_ms": write_p50,
        "write.p90_ms": write_p90,
    }


def run_workload(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int,
    work_dir: Path,
    cpu: "int | None" = None,
) -> dict[str, Any]:
    """One workload: set-ups, the untraced window, and optionally the traced one."""
    from waterfall import join_check, layer_metrics
    from workloads import Plan

    plan = Plan(workload, seed)
    timings: list[SetupTiming] = []
    for i in range(setups):
        server, timing = start_server(plan, work_dir, f"{workload.name}-{i}", cpu)
        timings.append(timing)
        if i < setups - 1:
            server.stop()
    try:
        window = asyncio.run(_drive(plan, server, seconds, f"{workload.name}-w"))
    finally:
        server.stop()
    compared, mismatches = verify(plan, window)
    result: dict[str, Any] = {
        "setups_s": [t.setup_s for t in timings],
        "end_to_end": end_to_end(timings, window),
        "attempted": window.attempted,
        "failed": window.failed + mismatches,
        "compared": compared,
        "mismatches": mismatches,
        "trace_ok": True,
    }
    if trace:
        # the traced pass starts from a fresh server; write-mix's replay
        # has advanced the reference, so that one is rebuilt too
        if workload.write_rate:
            plan = Plan(workload, seed)
        spans_path = work_dir / f"{workload.name}.spans.json"
        spans_path.unlink(missing_ok=True)
        server, _timing = start_server(plan, work_dir, f"{workload.name}-t", cpu, spans_path)
        try:
            traced = asyncio.run(_drive(plan, server, seconds, f"{workload.name}-t"))
        finally:
            server.stop()
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        t_compared, t_mismatches = verify(plan, traced)
        join_ratio, escaped = join_check(spans, traced.records)
        layers = untraced_layers(timings[-1], window, plan.deck)
        layers.update(layer_metrics(spans, traced.records, traced.cache_delta))
        layers["trace.overhead_pct"] = 100 * (
            cpu_per_op(traced, plan.deck) / layers["cpu.ms_per_op"] - 1
        )
        layers["trace.overhead_p50_pct"] = 100 * (
            end_to_end(timings, traced)["p50_ms"] / result["end_to_end"]["p50_ms"] - 1
        )
        layers["trace.join_ratio"] = join_ratio
        result["per_layer"] = layers
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed + t_mismatches
        result["compared"] += t_compared
        result["mismatches"] += t_mismatches
        # a request the server never saw, or a server span outside its
        # client span, means the waterfall cannot be trusted
        result["trace_ok"] = join_ratio >= 0.99 and escaped == 0
    result["failed_ratio"] = result["failed"] / max(1, result["attempted"])
    return result


# --------------------------------------------------------------------- #
# Provenance and CLI
# --------------------------------------------------------------------- #
def _git(*args: str) -> "str | None":
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(
    contract: dict[str, Any], args: argparse.Namespace, cpus: "tuple[int, int] | None"
) -> dict[str, Any]:
    """Where and how a result was measured: commit, machine, versions, settings."""
    import numpy
    from workloads import DATASET_SEED

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
        "numpy": numpy.__version__,
        "generator_cpu": None if cpus is None else cpus[0],
        "server_cpu": None if cpus is None else cpus[1],
        "seed": args.seed,
        "dataset_seed": DATASET_SEED,
        "window_s": args.seconds,
        "traced_window_s": args.seconds if args.trace else None,
        "warmup_ops": WARMUP_OPS,
        "setups": SETUPS,
        "bounds": {
            m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for m in contract["end_to_end"]
        },
    }


def _require_source() -> dict[str, Any]:
    """Put the checkout's ``src`` on the path; returns the BENCHMARK.json contract."""
    contract_path = REPO / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not contract_path.is_file():
        raise SystemExit(
            f"error: {SRC / 'repro'} or {contract_path} is missing; "
            "run this from a repro checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return json.loads(contract_path.read_text(encoding="utf-8"))


def main(argv: "list[str] | None" = None) -> int:
    contract = _require_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="seeds the request streams")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run the traced window and report per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=None, help="write the result file here")
    args = parser.parse_args(argv)

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    reported = contract["per_layer"] if args.trace else contract["end_to_end"]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    # the generator and the server tree each keep a CPU of their own
    allowed = sorted(os.sched_getaffinity(0))
    cpus = (allowed[0], allowed[-1]) if len(allowed) > 1 else None
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[0]})
    results: dict[str, Any] = {}
    metrics: dict[str, dict[str, Any]] = {}
    for name in args.workload:
        result = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), SETUPS,
            WORK_DIR, None if cpus is None else cpus[1],
        )
        results[name] = result
        values = {**result["end_to_end"], **result.get("per_layer", {})}
        for metric, value in values.items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        print(f"{name} failed_ratio {result['failed_ratio']:.6g} ratio")
        print(f"{name} verified {result['compared'] - result['mismatches']}/{result['compared']}")
        prefix = f"{name}." if len(args.workload) > 1 else ""
        for m in reported:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = all(r["mismatches"] == 0 and r["trace_ok"] for r in results.values())
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {
                    "provenance": provenance(contract, args, cpus),
                    "workloads": results,
                },
                indent=1,
            ),
            encoding="utf-8",
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
