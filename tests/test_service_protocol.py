"""Tests for the wire protocol: codec round-trips and strict validation.

The property tests pin the codec identity ``decode(encode(x)) == x`` over
randomized options, cursors, requests, and responses; the validation tests pin that unknown,
missing, and ill-typed fields produce the 400-style
:class:`RequestValidationError` — never a silent partial decode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import QueryOptions
from repro.errors import RequestValidationError
from repro.search.keyword import DataSubjectMatch
from repro.service.dispatch import page_window
from repro.service.protocol import (
    PROTOCOL_VERSION,
    BatchRequest,
    Cursor,
    QueryRequest,
    QueryResponse,
    ResultEntry,
    SizeLRequest,
    decode_batch_request,
    decode_options,
    decode_query_request,
    decode_query_response,
    decode_request,
    decode_size_l_request,
    encode_error,
    encode_request,
    encode_response,
)

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
query_options = st.builds(
    QueryOptions,
    l=st.integers(min_value=1, max_value=50),
    algorithm=st.sampled_from(["dp", "bottom_up", "top_path", "top_path_optimized"]),
    source=st.sampled_from(["complete", "prelim"]),
    backend=st.sampled_from(["datagraph", "database"]),
    max_results=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    depth_limit=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)

cursors = st.builds(
    Cursor,
    rank=st.integers(min_value=0, max_value=10_000),
    table=st.text(min_size=1, max_size=20),
    row_id=st.integers(min_value=0, max_value=10_000_000),
)

query_requests = st.builds(
    QueryRequest,
    dataset=st.sampled_from(["dblp", "tpch", "prod-east"]),
    keywords=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=4).map(
        tuple
    ),
    options=query_options,
    cursor=st.one_of(st.none(), cursors),
    page_size=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
)

size_l_requests = st.builds(
    SizeLRequest,
    dataset=st.sampled_from(["dblp", "tpch"]),
    table=st.sampled_from(["author", "customer"]),
    row_id=st.integers(min_value=0, max_value=10_000),
    options=query_options,
)

batch_requests = st.builds(
    BatchRequest,
    dataset=st.sampled_from(["dblp", "tpch"]),
    subjects=st.lists(
        st.tuples(
            st.sampled_from(["author", "paper"]), st.integers(min_value=0, max_value=99)
        ),
        min_size=1,
        max_size=5,
    ).map(tuple),
    options=query_options,
)

result_entries = st.builds(
    ResultEntry,
    rank=st.integers(min_value=0, max_value=100),
    table=st.sampled_from(["author", "customer"]),
    row_id=st.integers(min_value=0, max_value=10_000),
    match_importance=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    importance=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    l=st.integers(min_value=1, max_value=50),
    algorithm=st.sampled_from(["dp", "top_path"]),
    selected_uids=st.lists(
        st.integers(min_value=0, max_value=1000), max_size=8, unique=True
    ).map(lambda uids: tuple(sorted(uids))),
    rendered=st.text(max_size=40),
    stats=st.dictionaries(
        st.sampled_from(["initial_os_size", "cached", "source"]),
        st.integers(min_value=0, max_value=10),
        max_size=3,
    ),
)

query_responses = st.builds(
    QueryResponse,
    dataset=st.sampled_from(["dblp", "tpch"]),
    keywords=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=3).map(
        tuple
    ),
    results=st.lists(result_entries, max_size=4).map(tuple),
    total_matches=st.integers(min_value=0, max_value=500),
    next_cursor=st.one_of(st.none(), cursors),
    cache=st.dictionaries(
        st.sampled_from(["hits", "misses", "disk_hits"]),
        st.integers(min_value=0, max_value=100),
        max_size=3,
    ),
)


# --------------------------------------------------------------------- #
# Round-trip identity
# --------------------------------------------------------------------- #
class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(options=query_options)
    def test_options_roundtrip_is_identity(self, options: QueryOptions) -> None:
        assert decode_options(options.as_dict()) == options

    @settings(max_examples=60, deadline=None)
    @given(cursor=cursors)
    def test_cursor_roundtrip_is_identity(self, cursor: Cursor) -> None:
        assert Cursor.decode(cursor.encode()) == cursor

    @settings(max_examples=60, deadline=None)
    @given(request=query_requests)
    def test_query_request_roundtrip_is_identity(self, request: QueryRequest) -> None:
        assert decode_query_request(encode_request(request)) == request

    @settings(max_examples=40, deadline=None)
    @given(request=size_l_requests)
    def test_size_l_request_roundtrip_is_identity(self, request: SizeLRequest) -> None:
        assert decode_size_l_request(encode_request(request)) == request

    @settings(max_examples=40, deadline=None)
    @given(request=batch_requests)
    def test_batch_request_roundtrip_is_identity(self, request: BatchRequest) -> None:
        assert decode_batch_request(encode_request(request)) == request

    @settings(max_examples=40, deadline=None)
    @given(response=query_responses)
    def test_query_response_roundtrip_is_identity(
        self, response: QueryResponse
    ) -> None:
        assert decode_query_response(encode_response(response)) == response

    def test_decode_request_dispatches_by_kind(self) -> None:
        body = encode_request(
            QueryRequest("dblp", ("x",), QueryOptions())
        )
        assert isinstance(decode_request("query", body), QueryRequest)
        with pytest.raises(RequestValidationError, match="unknown request kind"):
            decode_request("nope", body)


# --------------------------------------------------------------------- #
# The page window both topologies cut a cursor's page with
# --------------------------------------------------------------------- #
_MATCHES = [
    DataSubjectMatch("author", 10, 0.9),
    DataSubjectMatch("author", 11, 0.5),
    DataSubjectMatch("paper", 12, 0.1),
]


@pytest.mark.parametrize(
    ("cursor", "page_size", "window"),
    [
        pytest.param(None, None, (0, 3, None), id="no-cursor"),
        pytest.param(None, 2, (0, 2, Cursor(1, "author", 11)), id="first-page"),
        pytest.param(Cursor(0, "author", 10), 5, (1, 3, None), id="size-past-end"),
        pytest.param(Cursor(2, "paper", 12), None, (3, 3, None), id="last-rank"),
        pytest.param(Cursor(3, "paper", 12), None, None, id="rank-at-len"),
        pytest.param(Cursor(9, "paper", 12), 1, None, id="rank-beyond-len"),
        pytest.param(Cursor(1, "author", 10), None, None, id="other-subject"),
    ],
)
def test_page_window_edges(cursor, page_size, window) -> None:
    """``(start, stop, next_cursor)``, or the pinned stale-cursor 400
    (``window`` None) when the cursor no longer names its rank."""
    if window is None:
        with pytest.raises(RequestValidationError, match="^stale cursor: rank"):
            page_window(_MATCHES, cursor, page_size)
    else:
        assert page_window(_MATCHES, cursor, page_size) == window


# --------------------------------------------------------------------- #
# Strict validation (the pinned 400 shape)
# --------------------------------------------------------------------- #
class TestValidation:
    def test_unknown_request_field_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="unknown field"):
            decode_query_request(
                {"dataset": "dblp", "keywords": ["x"], "bogus": 1}
            )

    def test_missing_dataset_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="dataset"):
            decode_query_request({"keywords": ["x"]})

    def test_missing_keywords_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="keywords"):
            decode_query_request({"dataset": "dblp"})

    def test_empty_keywords_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="keywords"):
            decode_query_request({"dataset": "dblp", "keywords": []})

    def test_non_string_keywords_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="keywords"):
            decode_query_request({"dataset": "dblp", "keywords": [1, 2]})

    def test_unknown_options_field_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="unknown field"):
            decode_options({"ll": 5})
        # one OS representation: there is no "flat" option to set
        with pytest.raises(RequestValidationError, match="unknown field"):
            decode_options({"source": "complete", "flat": False})

    def test_unknown_parallel_field_rejected(self) -> None:
        # requests run serially: there is no "parallel" option to set
        for parallel in ({"workers": 2, "threads": 4}, {"workers": 1}, None):
            with pytest.raises(
                RequestValidationError, match=r"unknown field\(s\) \['parallel'\]"
            ):
                decode_options({"parallel": parallel})

    def test_library_validation_maps_to_request_error(self) -> None:
        # invalid l and unknown algorithm both surface as the 400 error,
        # carrying the library's own message
        with pytest.raises(RequestValidationError, match="summary size l"):
            decode_options({"l": 0})
        with pytest.raises(RequestValidationError, match="unknown algorithm"):
            decode_options({"algorithm": "magic"})

    def test_wire_worker_cap_enforced(self) -> None:
        """A request cannot ask for threads at all: ``parallel`` is an
        unknown field at any worker count."""
        for workers in (64, 65):
            with pytest.raises(RequestValidationError, match="unknown field") as err:
                decode_options({"l": 5, "parallel": {"workers": workers}})
            assert "parallel" in str(err.value)

    def test_wire_l_cap_enforced(self) -> None:
        """A request must not be able to size a DP table past the cap."""
        from repro.service.protocol import MAX_WIRE_L

        assert decode_options({"l": MAX_WIRE_L}).l == MAX_WIRE_L
        with pytest.raises(RequestValidationError, match="wire limit of 1000"):
            decode_options({"l": MAX_WIRE_L + 1, "algorithm": "dp"})

    def test_batch_subject_cap_enforced(self) -> None:
        from repro.service.protocol import MAX_BATCH_SUBJECTS

        too_many = [["author", i] for i in range(MAX_BATCH_SUBJECTS + 1)]
        with pytest.raises(RequestValidationError, match="batch limit"):
            decode_batch_request({"dataset": "dblp", "subjects": too_many})

    def test_bad_page_size_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="page_size"):
            decode_query_request(
                {"dataset": "dblp", "keywords": ["x"], "page_size": 0}
            )

    def test_wrong_protocol_version_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="protocol_version"):
            decode_query_request(
                {
                    "protocol_version": PROTOCOL_VERSION + 1,
                    "dataset": "dblp",
                    "keywords": ["x"],
                }
            )

    def test_undecodable_cursor_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="cursor"):
            decode_query_request(
                {"dataset": "dblp", "keywords": ["x"], "cursor": "!!not-base64!!"}
            )
        with pytest.raises(RequestValidationError, match="cursor"):
            Cursor.decode(12345)

    def test_non_object_payload_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="JSON object"):
            decode_query_request(["not", "a", "dict"])

    def test_bad_subjects_rejected(self) -> None:
        with pytest.raises(RequestValidationError, match="subjects"):
            decode_batch_request({"dataset": "dblp", "subjects": []})
        with pytest.raises(RequestValidationError, match=r"subjects\[1\]"):
            decode_batch_request(
                {"dataset": "dblp", "subjects": [["author", 1], ["author"]]}
            )

    def test_defaults_seed_decode(self) -> None:
        defaults = QueryOptions(l=33)
        decoded = decode_query_request(
            {"dataset": "dblp", "keywords": ["x"]}, defaults=defaults
        )
        assert decoded.options.l == 33
        overridden = decode_query_request(
            {"dataset": "dblp", "keywords": ["x"], "options": {"l": 4}},
            defaults=defaults,
        )
        assert overridden.options.l == 4

    def test_error_body_shape_is_pinned(self) -> None:
        body = encode_error(RequestValidationError("bad field"), 400)
        assert body == {
            "protocol_version": PROTOCOL_VERSION,
            "error": {
                "type": "RequestValidationError",
                "message": "bad field",
                "status": 400,
            },
        }
