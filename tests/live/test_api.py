"""Wire-format validation: bid parsing in, status documents out."""

from __future__ import annotations

import json

import pytest

from repro.live.api import (
    TASK_STATUS_KEYS,
    ApiError,
    parse_bid,
    parse_bid_body,
    task_status_doc,
)

GOOD = {"runtime": 300, "value": 100, "decay": 0.5}


def test_parse_minimal_bid_fills_defaults():
    bid = parse_bid(GOOD)
    assert (bid.runtime, bid.value, bid.decay) == (300.0, 100.0, 0.5)
    assert bid.bound is None
    assert bid.client_id is None
    assert bid.argv is None


def test_parse_full_bid():
    bid = parse_bid(
        {**GOOD, "bound": 200, "client_id": "curl", "argv": ["sleep", "3"], "demand": 1}
    )
    assert bid.bound == 200.0
    assert bid.client_id == "curl"
    assert bid.argv == ("sleep", "3")


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ([1, 2], "must be a JSON object"),
        ({"value": 1, "decay": 0}, "'runtime' is required"),
        ({**GOOD, "runtime": 0}, "runtime must be > 0"),
        ({**GOOD, "runtime": "300"}, "must be a number"),
        ({**GOOD, "runtime": True}, "must be a number"),
        ({**GOOD, "runtime": float("inf")}, "must be finite"),
        ({**GOOD, "decay": -0.1}, "decay must be >= 0"),
        ({**GOOD, "bound": -5}, "bound must be >= 0"),
        ({**GOOD, "demand": 2}, "demand=1 only"),
        ({**GOOD, "client_id": 7}, "client_id must be a string"),
        ({**GOOD, "argv": []}, "non-empty list of strings"),
        ({**GOOD, "argv": ["sleep", 3]}, "non-empty list of strings"),
        ({**GOOD, "surprise": 1}, "unknown bid fields"),
    ],
)
def test_parse_bid_rejections(payload, fragment):
    with pytest.raises(ApiError, match=fragment):
        parse_bid(payload)


def test_parse_body_single_and_batch():
    single = parse_bid_body(json.dumps(GOOD).encode())
    assert len(single) == 1
    batch = parse_bid_body(json.dumps({"bids": [GOOD, GOOD, GOOD]}).encode())
    assert len(batch) == 3


@pytest.mark.parametrize(
    "body,fragment",
    [
        (b"{not json", "not valid JSON"),
        (b'{"bids": []}', "non-empty list"),
        (b'{"bids": 3}', "non-empty list"),
        # an integer too large for a float (was OverflowError: a 500)
        pytest.param(
            b'{"runtime": 1' + b"0" * 400 + b', "value": 1, "decay": 1}',
            "'runtime' must be finite", id="int-past-float",
        ),
        pytest.param(
            b'{"bids": [{"runtime": 1, "value": -1' + b"0" * 400 + b', "decay": 1}]}',
            "'value' must be finite", id="negative-int-past-float",
        ),
        # past the interpreter's integer digit limit, and nesting past
        # its recursion limit (were ValueError and RecursionError: 500s)
        pytest.param(
            b'{"runtime": 1' + b"0" * 5000 + b"}", "not valid JSON", id="int-past-digit-limit"
        ),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "not valid JSON", id="nesting-bomb"),
    ],
)
def test_parse_body_rejections(body, fragment):
    with pytest.raises(ApiError, match=fragment):
        parse_bid_body(body)


def test_api_error_carries_http_status():
    assert ApiError("x").status == 400
    assert ApiError("x", status=404).status == 404


def test_task_status_doc_keys_match_contract():
    """task_status_doc and TASK_STATUS_KEYS must never drift apart —
    the e2e test and CI smoke assert completion payloads against the set."""

    class _Stub:
        def __getattr__(self, name):  # every field reads as a neutral value
            return None

    class _Task(_Stub):
        tid = 1
        restarts = 0

        class state:
            value = "completed"

    record = _Stub()
    record.task = _Task()
    record.contract = _Stub()
    record.bid = _Stub()
    record.report = None
    record.site_id = "live-0"
    record.submitted_at = 0.0
    assert set(task_status_doc(record)) == TASK_STATUS_KEYS
