"""The stdlib retry client, against a scripted fake transport.

``LiveClient`` exposes two injection seams — ``sleep`` and ``clock`` —
and one transport method (``_once``); the fake transport replaces the
latter so every retry decision (backoff cadence, Retry-After override,
deadline, non-retryable passthrough) is asserted without sockets.
"""

from __future__ import annotations

import json
import urllib.error

import pytest

from repro.errors import LiveServiceError
from repro.live.client import (
    RETRYABLE_STATUSES,
    ClientGaveUp,
    ClientResult,
    LiveClient,
    RetryPolicy,
    fresh_idempotency_key,
)


class FakeTransport:
    """Answers requests from a script of statuses / exceptions."""

    def __init__(self, client: LiveClient, script):
        self.script = list(script)
        self.calls = []
        client._once = self._once  # type: ignore[method-assign]

    def _once(self, method, path, body, idempotency_key, attempts):
        self.calls.append((method, path, body, idempotency_key))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        status, retry_after = step if isinstance(step, tuple) else (step, None)
        client = self._client_placeholder
        client._retry_after = retry_after
        doc = {"status": status}
        return ClientResult(
            status=status,
            doc=doc,
            body=json.dumps(doc).encode(),
            replayed=False,
            attempts=attempts,
        )

    _client_placeholder: LiveClient


def _client(script, **policy_overrides):
    policy_overrides.setdefault("attempts", 4)
    policy_overrides.setdefault("base_delay", 1.0)
    policy_overrides.setdefault("deadline", 1000.0)
    sleeps: list[float] = []
    now = [0.0]

    def sleep(seconds):
        sleeps.append(seconds)
        now[0] += seconds

    client = LiveClient(
        "http://test", RetryPolicy(**policy_overrides),
        sleep=sleep, clock=lambda: now[0],
    )
    transport = FakeTransport(client, script)
    transport._client_placeholder = client
    return client, transport, sleeps


def test_success_on_first_attempt_never_sleeps():
    client, transport, sleeps = _client([200])
    result = client.submit_bid({"runtime": 1.0}, idempotency_key="k")
    assert result.status == 200 and result.attempts == 1
    assert sleeps == []
    assert transport.calls == [("POST", "/bids", {"runtime": 1.0}, "k")]


def test_exponential_backoff_on_retryable_statuses():
    client, _, sleeps = _client([503, 503, 503, 200], backoff=2.0)
    result = client.request("GET", "/status")
    assert result.status == 200
    # retry k waits base_delay * backoff**k
    assert sleeps == [1.0, 2.0, 4.0]


def test_retry_after_overrides_the_computed_delay():
    client, _, sleeps = _client([(429, 7.5), 200])
    result = client.request("POST", "/bids", body={})
    assert result.status == 200
    assert sleeps == [7.5], "the server's hint beats the exponential guess"


def test_connection_errors_are_retried():
    client, _, sleeps = _client(
        [urllib.error.URLError("refused"), ConnectionError("reset"), 200]
    )
    assert client.request("GET", "/status").status == 200
    assert len(sleeps) == 2


def test_non_retryable_status_is_returned_not_retried():
    client, transport, sleeps = _client([400, 200])
    result = client.request("POST", "/bids", body={})
    assert result.status == 400, "a 400 is the caller's bug, not transience"
    assert sleeps == [] and len(transport.calls) == 1


def test_gives_up_after_the_attempt_budget():
    client, _, _ = _client([503, 503, 503, 503])
    with pytest.raises(ClientGaveUp) as excinfo:
        client.request("GET", "/status")
    assert excinfo.value.last_status == 503
    assert "4 attempt(s)" in str(excinfo.value)


def test_deadline_cuts_retries_short():
    # 3 allowed retries would sleep 10+20+40, but the deadline is 15s:
    # the second sleep is clamped and the loop exits without a 4th try
    client, transport, sleeps = _client(
        [503, 503, 503, 200], base_delay=10.0, deadline=15.0
    )
    with pytest.raises(ClientGaveUp, match="15s"):
        client.request("GET", "/status")
    assert len(transport.calls) < 4
    assert sum(sleeps) <= 15.0


def test_submit_bid_generates_a_key_when_none_given():
    client, transport, _ = _client([200])
    client.submit_bid({"runtime": 1.0})
    [(_, _, _, key)] = transport.calls
    assert key is not None and len(key) == 32


def test_retried_submission_reuses_one_key():
    client, transport, _ = _client([503, 200])
    client.submit_bid({"runtime": 1.0})
    keys = {key for (_, _, _, key) in transport.calls}
    assert len(keys) == 1, "a retry must replay the same logical submission"


def test_fresh_keys_are_unique():
    keys = {fresh_idempotency_key() for _ in range(64)}
    assert len(keys) == 64


def test_retryable_statuses_cover_backpressure_and_transients():
    assert RETRYABLE_STATUSES == {429, 502, 503, 504}


def test_policy_validation():
    for kwargs in (
        {"attempts": 0},
        {"base_delay": 0.0},
        {"backoff": 0.5},
        {"deadline": 0.0},
        {"request_timeout": 0.0},
    ):
        with pytest.raises(LiveServiceError):
            RetryPolicy(**kwargs)
    assert RetryPolicy().retry_delay(3) == pytest.approx(0.1 * 2.0**3)
