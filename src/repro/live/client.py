"""A retrying stdlib client for the live service HTTP API.

The durability contract has two halves.  The server half (journal +
recovery) guarantees every *accepted* bid settles exactly once; the
client half lives here: retry safely until an answer arrives.  Safety
comes from the ``Idempotency-Key`` header — :meth:`LiveClient.submit_bid`
stamps every submission with a fresh key, so a retry after a dropped
connection, a 429 shed, a 503 drain, or even a server crash-and-recover
replays the *original* response instead of buying a second award.

Retry cadence is bounded exponential backoff: retry *k* (0-based)
waits ``base_delay * backoff**k``, bounded by an overall deadline.  A
``Retry-After`` header on a backpressure answer overrides the computed
delay — the server knows its queue better than the client's exponential
guess.

Nothing beyond the standard library::

    from repro.live.client import LiveClient

    client = LiveClient("http://127.0.0.1:8080")
    result = client.submit_bid({"runtime": 300, "value": 100, "decay": 0.5})
    print(result.doc["accepted"], result.replayed)
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import LiveServiceError

#: HTTP statuses worth retrying: backpressure answers (which carry
#: Retry-After) and transient server-side failures.
RETRYABLE_STATUSES = frozenset({429, 502, 503, 504})


class ClientGaveUp(LiveServiceError):
    """Retries exhausted (attempt budget or deadline) without an answer."""

    def __init__(self, message: str, last_status: Optional[int] = None) -> None:
        super().__init__(message)
        self.last_status = last_status


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with an overall deadline.

    ``backoff`` is the exponential base: retry *k* (0-based) waits
    ``base_delay * backoff**k`` seconds.  ``deadline`` caps the whole
    conversation (wall seconds, connection time included); ``attempts``
    caps the number of tries regardless of time left.
    """

    attempts: int = 5
    base_delay: float = 0.1
    backoff: float = 2.0
    deadline: float = 30.0
    request_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise LiveServiceError(f"attempts must be >= 1, got {self.attempts!r}")
        if not self.base_delay > 0:
            raise LiveServiceError(
                f"base_delay must be > 0, got {self.base_delay!r}"
            )
        if not self.backoff >= 1.0:
            raise LiveServiceError(f"backoff must be >= 1, got {self.backoff!r}")
        if not self.deadline > 0:
            raise LiveServiceError(f"deadline must be > 0, got {self.deadline!r}")
        if not self.request_timeout > 0:
            raise LiveServiceError(
                f"request_timeout must be > 0, got {self.request_timeout!r}"
            )

    def retry_delay(self, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based), in wall seconds."""
        return self.base_delay * self.backoff**attempt


@dataclass(frozen=True)
class ClientResult:
    """One answered request: parsed document plus transport detail."""

    status: int
    doc: object
    body: bytes
    replayed: bool
    attempts: int


def fresh_idempotency_key() -> str:
    """A random 128-bit key, unique per logical submission."""
    return os.urandom(16).hex()


class LiveClient:
    """Deadline-bounded retrying client over ``urllib`` (stdlib only).

    Parameters
    ----------
    base_url:
        Service root, e.g. ``http://127.0.0.1:8080``.
    policy:
        Retry cadence; defaults to :class:`RetryPolicy`'s defaults.
    sleep, clock:
        Injection points for tests — the backoff sleeper and the
        monotonic deadline source.
    """

    def __init__(
        self,
        base_url: str,
        policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.policy = policy if policy is not None else RetryPolicy()
        self._sleep = sleep
        self._clock = clock

    # ------------------------------------------------------------------
    def submit_bid(
        self,
        payload: dict,
        idempotency_key: Optional[str] = None,
    ) -> ClientResult:
        """POST one bid (or a ``{"bids": [...]}`` batch), retrying safely.

        A key is generated when none is supplied, so every retry of this
        call — including across a server crash and recovery — replays
        the same logical submission.
        """
        key = idempotency_key if idempotency_key is not None else fresh_idempotency_key()
        return self.request("POST", "/bids", body=payload, idempotency_key=key)

    def status(self) -> ClientResult:
        return self.request("GET", "/status")

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        idempotency_key: Optional[str] = None,
    ) -> ClientResult:
        """Issue one request under the retry policy; returns the answer.

        Retries on connection failures and :data:`RETRYABLE_STATUSES`;
        any other status is returned (or raised as the final answer) —
        a 400 is the caller's bug, not transience.
        """
        deadline = self._clock() + self.policy.deadline
        last_status: Optional[int] = None
        last_error = "no attempt made"
        for attempt in range(self.policy.attempts):
            if attempt > 0:
                delay = min(self._retry_after or self.policy.retry_delay(attempt - 1),
                            max(0.0, deadline - self._clock()))
                if delay > 0:
                    self._sleep(delay)
            if self._clock() >= deadline:
                break
            try:
                result = self._once(method, path, body, idempotency_key, attempt + 1)
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                self._retry_after = None
                last_error = str(exc)
                continue
            if result.status in RETRYABLE_STATUSES:
                last_status = result.status
                last_error = f"HTTP {result.status}"
                continue
            return result
        raise ClientGaveUp(
            f"{method} {self.base_url}{path} gave up after {self.policy.attempts} "
            f"attempt(s) within {self.policy.deadline:g}s: {last_error}",
            last_status=last_status,
        )

    # set per attempt: the server's Retry-After hint, if any
    _retry_after: Optional[float] = None

    def _once(
        self,
        method: str,
        path: str,
        body: Optional[dict],
        idempotency_key: Optional[str],
        attempts: int,
    ) -> ClientResult:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        if idempotency_key is not None:
            request.add_header("Idempotency-Key", idempotency_key)
        self._retry_after = None
        try:
            with urllib.request.urlopen(
                request, timeout=self.policy.request_timeout
            ) as response:
                raw = response.read()
                headers = response.headers
                status = response.status
        except urllib.error.HTTPError as error:
            raw = error.read()
            headers = error.headers
            status = error.code
        retry_after = headers.get("Retry-After")
        if retry_after is not None:
            try:
                self._retry_after = max(0.0, float(retry_after))
            except ValueError:
                self._retry_after = None
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = None
        return ClientResult(
            status=status,
            doc=doc,
            body=raw,
            replayed=headers.get("Idempotency-Replayed", "").lower() == "true",
            attempts=attempts,
        )
