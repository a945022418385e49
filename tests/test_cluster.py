"""The sharded serving cluster: transport, worker pool, router, recovery.

The expensive fixtures are module-scoped: one 3-shard cluster (three
worker subprocesses over the scale-0.5 DBLP dataset) and one
single-process reference dispatcher over the *same* recipe.  Every
routing test is an equality test against that reference — sharding is an
implementation detail of the service, so the wire behaviour must be
bit-identical minus timing fields.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cluster import (
    Cluster,
    ClusterRouter,
    DatasetSpec,
    TransportError,
    WorkerSpec,
    recv_frame,
    send_frame,
)
from repro.core.cache import CacheStats
from repro.core.options import QueryOptions
from repro.errors import ClusterError
from repro.service.deployment import Deployment
from repro.service.dispatch import ServiceDispatcher
from repro.service.protocol import Cursor

SEED, SCALE = 7, 0.5
KEYWORDS = ["Faloutsos"]
OPTIONS = {"l": 8}

#: Entry fields stable across recomputation (stats carries wall-clock
#: timings and cache-hit flags, which legitimately differ per process).
_STABLE = (
    "rank",
    "table",
    "row_id",
    "match_importance",
    "importance",
    "l",
    "algorithm",
    "selected_uids",
    "rendered",
)


def stable(entry: dict) -> dict:
    return {key: entry[key] for key in _STABLE}


# --------------------------------------------------------------------- #
# Transport framing (no processes involved)
# --------------------------------------------------------------------- #
class TestTransport:
    def test_frame_round_trip(self) -> None:
        a, b = socket.socketpair()
        try:
            message = {"id": 1, "endpoint": "/v1/query", "payload": {"x": [1, 2]}}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self) -> None:
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_is_transport_error(self) -> None:
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10partial")  # announces 16, sends 7
            a.close()
            with pytest.raises(TransportError, match="mid-frame|header"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_before_allocation(self) -> None:
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 31).to_bytes(4, "big"))
            with pytest.raises(TransportError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self) -> None:
        a, b = socket.socketpair()
        try:
            payload = b"[1,2,3]"
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(TransportError, match="JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_idle_timeout_propagates_for_drain_polling(self) -> None:
        """A timeout with no bytes read must stay ``socket.timeout`` —
        the worker's connection loop uses it to re-check the drain flag."""
        a, b = socket.socketpair()
        try:
            b.settimeout(0.05)
            with pytest.raises(socket.timeout):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestWorkerSpec:
    def test_round_trips_through_json(self) -> None:
        spec = WorkerSpec(
            shard_index=2,
            shard_count=4,
            datasets=(DatasetSpec(name="d", database="dblp", scale=0.5),),
            ready_file="/tmp/r.json",
            cache_size=16,
        )
        again = WorkerSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again == spec

    def test_invalid_spec_is_a_cluster_error(self) -> None:
        with pytest.raises(ClusterError, match="invalid worker spec"):
            WorkerSpec.from_dict({"shard_index": 0})


# --------------------------------------------------------------------- #
# The live cluster (module-scoped: 3 worker subprocesses)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reference():
    deployment = Deployment().add(
        "dblp", named="dblp", seed=SEED, scale=SCALE, cache_size=64
    )
    return ServiceDispatcher(deployment)


@pytest.fixture(scope="module")
def cluster():
    spec = DatasetSpec(name="dblp", database="dblp", seed=SEED, scale=SCALE)
    with Cluster([spec], shards=3, cache_size=16, startup_timeout=180) as running:
        yield running


class TestClusterEquality:
    def test_query_is_node_for_node_identical(self, cluster, reference) -> None:
        payload = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        status, sharded = cluster.dispatch_safe("/v1/query", payload)
        ref_status, single = reference.dispatch_safe("/v1/query", payload)
        assert (status, ref_status) == (200, 200)
        assert [stable(e) for e in sharded["results"]] == [
            stable(e) for e in single["results"]
        ]
        assert sharded["total_matches"] == single["total_matches"]
        assert sharded["next_cursor"] == single["next_cursor"]
        assert sharded["keywords"] == single["keywords"]
        # and against the library entry point itself, node for node
        session = reference.deployment.session("dblp")
        direct = session.keyword_query(KEYWORDS, options=QueryOptions(l=8))
        assert [tuple(e["selected_uids"]) for e in sharded["results"]] == [
            tuple(sorted(entry.result.selected_uids)) for entry in direct
        ]

    def test_paging_crosses_shard_boundaries(self, cluster, reference) -> None:
        """page_size=1 forces every page onto whichever shard owns that
        match — the concatenation must equal the unpaged ranking."""
        base = {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        _, unpaged = reference.dispatch_safe("/v1/query", base)
        collected, cursor = [], None
        for _ in range(50):
            payload = dict(base, page_size=1)
            if cursor is not None:
                payload["cursor"] = cursor
            status, page = cluster.dispatch_safe("/v1/query", payload)
            assert status == 200, page
            assert len(page["results"]) == 1
            collected.extend(page["results"])
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert [stable(e) for e in collected] == [
            stable(e) for e in unpaged["results"]
        ]

    def test_cursors_interoperate_between_topologies(
        self, cluster, reference
    ) -> None:
        """A cursor minted by the single-process server resumes correctly
        on the cluster (and vice versa) — sharding must not change what a
        cursor means."""
        base = {
            "dataset": "dblp",
            "keywords": KEYWORDS,
            "options": OPTIONS,
            "page_size": 1,
        }
        _, first_single = reference.dispatch_safe("/v1/query", base)
        status, second_sharded = cluster.dispatch_safe(
            "/v1/query", dict(base, cursor=first_single["next_cursor"])
        )
        assert status == 200
        _, second_single = reference.dispatch_safe(
            "/v1/query", dict(base, cursor=first_single["next_cursor"])
        )
        assert [stable(e) for e in second_sharded["results"]] == [
            stable(e) for e in second_single["results"]
        ]
        _, first_sharded = cluster.dispatch_safe("/v1/query", base)
        assert first_sharded["next_cursor"] == first_single["next_cursor"]

    def test_stale_cursor_is_the_pinned_400(self, cluster) -> None:
        bogus = Cursor(rank=0, table="paper", row_id=999_999).encode()
        status, body = cluster.dispatch_safe(
            "/v1/query",
            {
                "dataset": "dblp",
                "keywords": KEYWORDS,
                "options": OPTIONS,
                "cursor": bogus,
            },
        )
        assert status == 400
        assert body["error"]["type"] == "RequestValidationError"
        assert "stale cursor" in body["error"]["message"]

    def test_size_l_and_batch_match_single_process(
        self, cluster, reference
    ) -> None:
        _, single = reference.dispatch_safe(
            "/v1/query", {"dataset": "dblp", "keywords": KEYWORDS, "options": OPTIONS}
        )
        subjects = [[e["table"], e["row_id"]] for e in single["results"]]
        payload = {"dataset": "dblp", "subjects": subjects, "options": OPTIONS}
        status, sharded_batch = cluster.dispatch_safe("/v1/batch", payload)
        _, single_batch = reference.dispatch_safe("/v1/batch", payload)
        assert status == 200
        assert [stable(e) for e in sharded_batch["results"]] == [
            stable(e) for e in single_batch["results"]
        ]
        one = {
            "dataset": "dblp",
            "table": subjects[0][0],
            "row_id": subjects[0][1],
            "options": OPTIONS,
        }
        status, sharded_one = cluster.dispatch_safe("/v1/size-l", one)
        _, single_one = reference.dispatch_safe("/v1/size-l", one)
        assert status == 200
        assert stable(sharded_one["result"]) == stable(single_one["result"])


class TestClusterErrors:
    """Every pinned single-process error survives the extra hop."""

    def test_validation_errors(self, cluster, reference) -> None:
        cases = [
            ("/v1/size-l", {"dataset": "dblp", "table": "author"}),  # no row_id
            ("/v1/size-l", "not an object"),
            ("/v1/batch", {"dataset": "dblp", "subjects": []}),
            ("/v1/query", {"dataset": "dblp"}),  # no keywords
            ("/v1/query", {"dataset": "dblp", "keywords": KEYWORDS, "bogus": 1}),
        ]
        for endpoint, payload in cases:
            status, body = cluster.dispatch_safe(endpoint, payload)
            ref_status, ref_body = reference.dispatch_safe(endpoint, payload)
            assert (status, body) == (ref_status, ref_body), endpoint

    def test_unknown_dataset_is_404(self, cluster) -> None:
        status, body = cluster.dispatch_safe(
            "/v1/size-l", {"dataset": "nope", "table": "author", "row_id": 0}
        )
        assert status == 404
        assert body["error"]["type"] == "UnknownDatasetError"

    def test_unknown_endpoint_is_404(self, cluster) -> None:
        status, body = cluster.dispatch_safe("/v1/frobnicate", {})
        assert status == 404
        assert body["error"]["type"] == "UnknownEndpointError"

    def test_oversized_batch_is_400(self, cluster) -> None:
        status, body = cluster.dispatch_safe(
            "/v1/batch",
            {"dataset": "dblp", "subjects": [["author", 0]] * 10_001},
        )
        assert status == 400
        assert "batch limit" in body["error"]["message"]

    def test_reload_without_snapshot_is_400_everywhere(self, cluster) -> None:
        status, body = cluster.dispatch_safe(
            "/v1/admin/reload", {"dataset": "dblp"}
        )
        assert status == 400
        assert "no snapshot path" in body["error"]["message"]


class TestClusterObservability:
    def test_stats_merge_sums_the_workers(self, cluster) -> None:
        # touch all three partitions so every worker has counters to merge
        for row_id in range(6):
            status, _ = cluster.dispatch_safe(
                "/v1/size-l",
                {
                    "dataset": "dblp",
                    "table": "author",
                    "row_id": row_id % 3,
                    "options": OPTIONS,
                },
            )
            assert status == 200
        per_worker = [
            cluster.supervisor.request(shard, "/v1/stats", {"dataset": "dblp"})[1][
                "cache"
            ]
            for shard in range(3)
        ]
        status, merged = cluster.dispatch_safe("/v1/stats", {"dataset": "dblp"})
        assert status == 200
        assert merged["cache"] == CacheStats.merge(*per_worker).as_dict()
        assert merged["cluster"] == {"shards": 3, "ready": 3}

    def test_aggregate_stats_also_merge(self, cluster) -> None:
        status, merged = cluster.dispatch_safe("/v1/stats")
        assert status == 200
        assert merged["cluster"]["shards"] == 3
        assert isinstance(merged["dblp"]["cache"]["hits"], int)

    def test_row_scoped_invalidate_hits_only_the_owner(self, cluster) -> None:
        subject = {"dataset": "dblp", "table": "author", "row_id": 1}
        status, _ = cluster.dispatch_safe(
            "/v1/size-l", dict(subject, options=OPTIONS)
        )
        assert status == 200
        owner = cluster.router.ring.owner("dblp", "author", 1)
        before = [
            cluster.supervisor.request(s, "/v1/stats", {"dataset": "dblp"})[1][
                "cache"
            ]["cached_subjects"]
            for s in range(3)
        ]
        status, body = cluster.dispatch_safe("/v1/admin/invalidate", subject)
        assert status == 200
        assert body["invalidated"] == {"table": "author", "row_id": 1}
        after = [
            cluster.supervisor.request(s, "/v1/stats", {"dataset": "dblp"})[1][
                "cache"
            ]["cached_subjects"]
            for s in range(3)
        ]
        for shard in range(3):
            if shard == owner:
                assert after[shard] == before[shard] - 1
            else:
                assert after[shard] == before[shard]

    def test_healthz_over_http(self, cluster) -> None:
        server = cluster.create_http_server()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                f"{server.url}/v1/healthz", timeout=10
            ) as response:
                body = json.loads(response.read().decode("utf-8"))
            assert response.status == 200
            assert body["ok"] is True
            assert body["role"] == "router"
            assert [s["ready"] for s in body["shards"]] == [True, True, True]
            # liveness is GET-only, same 405 contract as the other reads
            request = urllib.request.Request(
                f"{server.url}/v1/healthz", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request, timeout=10)
            assert failure.value.code == 405
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestCrashRecovery:
    """Kill -9 one worker: impatient callers get the pinned 503, patient
    callers ride through the restart, and the shard comes back."""

    def test_kill_503_restart_and_serve_again(self, cluster) -> None:
        owner = cluster.router.ring.owner("dblp", "author", 0)
        payload = {
            "dataset": "dblp",
            "table": "author",
            "row_id": 0,
            "options": OPTIONS,
        }
        restarts_before = cluster.supervisor.restarts(owner)
        impatient = ClusterRouter(cluster.supervisor, request_timeout=0.2)
        try:
            cluster.supervisor.kill(owner)
            status, body = impatient.dispatch_safe("/v1/size-l", payload)
            assert status == 503
            assert body["error"]["type"] == "ShardUnavailableError"
            assert body["error"]["status"] == 503
            assert "safe to retry" in body["error"]["message"]
        finally:
            impatient.close()
        # the module router's 30s budget spans the restart: same request,
        # same worker index, answered by the replacement process
        status, body = cluster.dispatch_safe("/v1/size-l", payload)
        assert status == 200, body
        assert cluster.supervisor.restarts(owner) == restarts_before + 1
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if cluster.supervisor.ready_count() == 3:
                break
            time.sleep(0.05)
        assert cluster.supervisor.ready_count() == 3


# --------------------------------------------------------------------- #
# Graceful signals (subprocess regression tests for the serve CLI)
# --------------------------------------------------------------------- #
def _spawn_serve(tmp_path: Path, *extra: str) -> tuple[subprocess.Popen, str]:
    ready = tmp_path / "ready.txt"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--scale",
            "0.25",
            "serve",
            "--port",
            "0",
            "--ready-file",
            str(ready),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 120
    while not ready.is_file():
        if process.poll() is not None:
            raise AssertionError(
                f"serve exited early: {process.stderr.read().decode()}"
            )
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError("serve never wrote its ready file")
        time.sleep(0.05)
    return process, ready.read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("term_signal", [signal.SIGTERM, signal.SIGINT])
def test_serve_signal_is_a_clean_exit(tmp_path, term_signal) -> None:
    process, url = _spawn_serve(tmp_path)
    try:
        with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as response:
            assert response.status == 200
        process.send_signal(term_signal)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()


def test_serve_shards_sigterm_drains_the_whole_tree(tmp_path) -> None:
    """SIGTERM to the sharded front end exits 0 and leaves no orphaned
    worker processes behind."""
    process, url = _spawn_serve(tmp_path, "--shards", "2", "--cache-size", "8")
    try:
        with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as response:
            body = json.loads(response.read().decode("utf-8"))
        assert body["role"] == "router"
        workers = [shard["pid"] for shard in body["shards"]]
        assert len(workers) == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [pid for pid in workers if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.1)
        assert not [pid for pid in workers if _pid_alive(pid)]
    finally:
        if process.poll() is None:
            process.kill()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
