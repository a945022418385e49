"""End-to-end tests for the HTTP front end.

One ``ThreadingHTTPServer`` hosts **two** datasets (DBLP snapshot-backed,
TPC-H live) for the whole module; every test is a real socket round-trip
through :mod:`urllib`.  The acceptance path: page a keyword query via
cursors across multiple requests and match it node-for-node against the
in-process ``Session.keyword_query``, hot-reload the snapshot through
``/v1/admin/reload``, and pin that a mismatched snapshot produces the
409 error body while the deployment keeps serving.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.options import QueryOptions
from repro.service import Deployment, create_server
from repro.service.protocol import PROTOCOL_VERSION
from repro.session import Session

L = 6
OPTIONS = QueryOptions(l=L)


@pytest.fixture(scope="module")
def served(dblp, tpch, dblp_snapshot):
    """(server, deployment) over dblp (snapshot-backed) + tpch."""
    deployment = (
        Deployment()
        .add("dblp", dataset=dblp, snapshot=dblp_snapshot.path)
        .add("tpch", dataset=tpch)
    )
    server = create_server(deployment)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, deployment
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def call(server, path: str, body: dict | None = None, method: str | None = None):
    """One HTTP round-trip; returns (status, decoded JSON body)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestQueryPaging:
    def test_cursor_paging_matches_session_node_for_node(self, served, dblp) -> None:
        server, _deployment = served
        pages = []
        cursor = None
        requests = 0
        while True:
            body = {
                "dataset": "dblp",
                "keywords": ["Faloutsos"],
                "options": {"l": L},
                "page_size": 1,
            }
            if cursor is not None:
                body["cursor"] = cursor
            status, payload = call(server, "/v1/query", body)
            assert status == 200
            assert payload["protocol_version"] == PROTOCOL_VERSION
            pages.extend(payload["results"])
            requests += 1
            cursor = payload["next_cursor"]
            if cursor is None:
                break
        assert requests >= 2  # the acceptance bar: paged across requests

        # node-for-node identical to the in-process Session
        expected = Session.from_dataset(dblp).keyword_query(
            "Faloutsos", options=OPTIONS
        )
        assert len(pages) == len(expected)
        assert payload["total_matches"] == len(expected)
        for rank, (entry, wire) in enumerate(zip(expected, pages)):
            assert wire["rank"] == rank
            assert wire["table"] == entry.match.table
            assert wire["row_id"] == entry.match.row_id
            assert wire["selected_uids"] == sorted(entry.result.selected_uids)
            assert wire["rendered"] == entry.result.render()
            assert wire["importance"] == pytest.approx(entry.result.importance)

    def test_single_request_equals_paged_union(self, served) -> None:
        server, _deployment = served
        _status, whole = call(
            server,
            "/v1/query",
            {"dataset": "dblp", "keywords": ["Faloutsos"], "options": {"l": L}},
        )
        assert [r["rank"] for r in whole["results"]] == list(
            range(whole["total_matches"])
        )
        assert whole["next_cursor"] is None

    def test_earlier_pages_not_recomputed(self, served) -> None:
        """Resuming from a cursor computes only the requested page."""
        server, deployment = served
        session = deployment.session("dblp")
        _status, first = call(
            server,
            "/v1/query",
            {
                "dataset": "dblp",
                "keywords": ["Faloutsos"],
                "options": {"l": L},
                "page_size": 1,
            },
        )
        before = session.cache_stats()
        _status, second = call(
            server,
            "/v1/query",
            {
                "dataset": "dblp",
                "keywords": ["Faloutsos"],
                "options": {"l": L},
                "cursor": first["next_cursor"],
                "page_size": 1,
            },
        )
        after = session.cache_stats()
        assert [r["rank"] for r in second["results"]] == [1]
        # exactly one new subject entered the pipeline for page two
        assert after.requests - before.requests == 1

    def test_stale_cursor_is_pinned_400(self, served) -> None:
        server, _deployment = served
        _status, first = call(
            server,
            "/v1/query",
            {
                "dataset": "dblp",
                "keywords": ["Faloutsos"],
                "options": {"l": L},
                "page_size": 1,
            },
        )
        status, body = call(
            server,
            "/v1/query",
            {
                "dataset": "dblp",
                "keywords": ["zzznothing"],  # different ranking under the cursor
                "options": {"l": L},
                "cursor": first["next_cursor"],
            },
        )
        assert status == 400
        assert body["error"]["type"] == "RequestValidationError"
        assert "stale cursor" in body["error"]["message"]

    def test_complete_source_query_served_from_snapshot(self, served) -> None:
        """A wire query over the complete source must reach the disk tier
        of the snapshot-backed dataset (regression: the normalized prelim
        defaults used to pin flat=False into the decoded options, which
        silently bypassed the columnar path and the snapshot)."""
        server, deployment = served
        deployment.session("dblp").invalidate()  # memory out of the way
        deployment.reload("dblp")  # re-enable the disk tier after the mask
        before = deployment.session("dblp").cache_stats()
        status, payload = call(
            server,
            "/v1/query",
            {
                "dataset": "dblp",
                "keywords": ["Faloutsos"],
                "options": {"l": L, "source": "complete"},
            },
        )
        assert status == 200
        assert payload["cache"]["disk_hits"] - before.disk_hits == len(
            payload["results"]
        )
        assert payload["cache"]["tree_generations"] == before.tree_generations

    def test_tpch_served_alongside(self, served, tpch) -> None:
        server, _deployment = served
        status, payload = call(
            server,
            "/v1/query",
            {"dataset": "tpch", "keywords": ["Supplier#000001"], "options": {"l": 5}},
        )
        assert status == 200
        expected = Session.from_dataset(tpch).keyword_query(
            "Supplier#000001", options=QueryOptions(l=5)
        )
        assert [r["row_id"] for r in payload["results"]] == [
            e.match.row_id for e in expected
        ]
        assert [r["selected_uids"] for r in payload["results"]] == [
            sorted(e.result.selected_uids) for e in expected
        ]


class TestOtherEndpoints:
    def test_size_l_and_batch(self, served, dblp) -> None:
        server, _deployment = served
        status, single = call(
            server,
            "/v1/size-l",
            {"dataset": "dblp", "table": "author", "row_id": 1, "options": {"l": 7}},
        )
        assert status == 200
        expected = Session.from_dataset(dblp).size_l("author", 1, 7)
        assert single["result"]["selected_uids"] == sorted(expected.selected_uids)

        status, batch = call(
            server,
            "/v1/batch",
            {
                "dataset": "dblp",
                "subjects": [["author", 1], ["author", 0]],
                "options": {"l": 7},
            },
        )
        assert status == 200
        assert [r["row_id"] for r in batch["results"]] == [1, 0]
        assert batch["results"][0]["selected_uids"] == sorted(expected.selected_uids)

    def test_datasets_lists_both(self, served) -> None:
        server, _deployment = served
        status, body = call(server, "/v1/datasets")
        assert status == 200
        assert sorted(body["datasets"]) == ["dblp", "tpch"]
        assert body["datasets"]["dblp"]["snapshot"] is not None

    def test_stats_exposes_typed_cache_counters(self, served) -> None:
        server, _deployment = served
        call(
            server,
            "/v1/size-l",
            {"dataset": "dblp", "table": "author", "row_id": 2, "options": {"l": 5}},
        )
        status, body = call(server, "/v1/stats?dataset=dblp")
        assert status == 200
        assert body["dataset"] == "dblp"
        # the CacheStats field names, verbatim
        for key in ("hits", "misses", "disk_hits", "tree_generations"):
            assert key in body["cache"]

    def test_invalidate_endpoint_is_scoped(self, served) -> None:
        server, deployment = served
        session = deployment.session("dblp")
        session.size_l("author", 3, 5)
        status, body = call(
            server,
            "/v1/admin/invalidate",
            {"dataset": "dblp", "table": "author", "row_id": 3},
        )
        assert status == 200
        assert body["invalidated"] == {"table": "author", "row_id": 3}
        assert ("author", 3) not in session.cache._book

        # row_id without table is the pinned 400 (not a silent full clear)
        status, body = call(
            server, "/v1/admin/invalidate", {"dataset": "dblp", "row_id": 3}
        )
        assert status == 400
        assert body["error"]["type"] == "RequestValidationError"


class TestAdminReload:
    def test_hot_reload_swaps_the_snapshot(self, served) -> None:
        server, deployment = served
        before = deployment.session("dblp").cache.snapshot
        status, body = call(server, "/v1/admin/reload", {"dataset": "dblp"})
        assert status == 200
        assert body["dataset"] == "dblp"
        assert body["subjects"] == len(before.subjects)
        assert deployment.session("dblp").cache.snapshot is not before

    def test_mismatched_reload_is_409_and_keeps_serving(self, served) -> None:
        server, deployment = served
        entry = deployment._entry("tpch")
        entry.snapshot_path = deployment._entry("dblp").snapshot_path
        try:
            status, body = call(server, "/v1/admin/reload", {"dataset": "tpch"})
        finally:
            entry.snapshot_path = None
        assert status == 409
        assert body["error"]["type"] == "SnapshotMismatchError"
        assert body["error"]["status"] == 409
        assert "does not match" in body["error"]["message"]

        # the deployment is still up: the same dataset keeps answering
        status, payload = call(
            server,
            "/v1/query",
            {"dataset": "tpch", "keywords": ["Supplier#000001"], "options": {"l": 5}},
        )
        assert status == 200
        assert payload["results"]


class TestErrorContract:
    def test_unknown_dataset_is_404(self, served) -> None:
        server, _deployment = served
        status, body = call(
            server, "/v1/query", {"dataset": "oracle", "keywords": ["x"]}
        )
        assert status == 404
        assert body["error"]["type"] == "UnknownDatasetError"

    def test_unknown_endpoint_is_404(self, served) -> None:
        server, _deployment = served
        status, body = call(server, "/v1/nope", {"x": 1})
        assert status == 404
        # same typed body as the in-process dispatcher — transports agree
        assert body["error"]["type"] == "UnknownEndpointError"
        assert "unknown endpoint" in body["error"]["message"]
        status, body = call(server, "/v1/nope")  # GET flavour too
        assert status == 404
        assert body["error"]["type"] == "UnknownEndpointError"

    def test_bad_content_length_is_400_not_a_hung_thread(self, served) -> None:
        import http.client

        server, _deployment = served
        for bad in ("-1", "abc"):
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            try:
                connection.putrequest("POST", "/v1/query")
                connection.putheader("Content-Length", bad)
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == 400, bad
                body = json.loads(response.read().decode("utf-8"))
                assert "Content-Length" in body["error"]["message"]
            finally:
                connection.close()

    def test_validation_failure_is_400(self, served) -> None:
        server, _deployment = served
        status, body = call(
            server,
            "/v1/query",
            {"dataset": "dblp", "keywords": ["x"], "options": {"l": 0}},
        )
        assert status == 400
        assert body["error"]["type"] == "RequestValidationError"
        assert "summary size l" in body["error"]["message"]

    def test_malformed_json_is_400(self, served) -> None:
        server, _deployment = served
        request = urllib.request.Request(
            server.url + "/v1/query",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "not valid JSON" in body["error"]["message"]

    def test_wrong_method_is_405(self, served) -> None:
        server, _deployment = served
        status, body = call(server, "/v1/query", method="GET")
        assert status == 405
        assert "use POST" in body["error"]["message"]
        assert body["error"]["status"] == 405
        status, body = call(server, "/v1/datasets", {"x": 1})
        assert status == 405
        assert "use GET" in body["error"]["message"]


class TestHealthz:
    """``GET /v1/healthz``: pinned 200 liveness, no session builds."""

    def test_healthz_is_200_and_names_the_datasets(self, served) -> None:
        server, _deployment = served
        status, body = call(server, "/v1/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["role"] == "single-process"
        assert body["datasets"] == ["dblp", "tpch"]

    def test_healthz_never_builds_a_session(self) -> None:
        """A liveness probe on a freshly registered (unbuilt) deployment
        must answer without paying dataset synthesis."""
        deployment = Deployment().add("cold", named="dblp", scale=0.2)
        server = create_server(deployment)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = call(server, "/v1/healthz")
            assert status == 200
            assert body["ok"] is True
            assert deployment.describe("cold")["built"] is False
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_healthz_is_get_only(self, served) -> None:
        server, _deployment = served
        status, body = call(server, "/v1/healthz", {"x": 1})
        assert status == 405
        assert "use GET" in body["error"]["message"]
