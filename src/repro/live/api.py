"""JSON wire format for the live service HTTP API.

One place defines what goes over the wire: bid-request validation on the
way in, record/status serialization on the way out.  The HTTP layer
(:mod:`repro.live.httpd`) does transport only; tests and the CI smoke
script assert against the key sets exported here rather than retyping
them.

A bid request is the paper's §6 tuple plus execution detail::

    {"runtime": 300, "value": 100, "decay": 0.5, "bound": 200,
     "client_id": "curl", "argv": ["sleep", "3"]}

``argv`` is optional — when omitted the executor runs a sleep lasting
the declared runtime (converted to wall seconds by the clock rate),
which is the honest default for a service whose contracts price
*duration*, not output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import LiveServiceError

#: Wire-format version, reported by ``GET /status``.
API_VERSION = 1

#: Keys present in every task status document (``GET /tasks/<id>``).
#: The e2e test and the CI smoke script assert completion payloads
#: against this set — keep it in sync with :func:`task_status_doc`.
TASK_STATUS_KEYS = frozenset(
    {
        "task_id",
        "bid_id",
        "state",
        "site",
        "client_id",
        "submitted_at",
        "started_at",
        "completed_at",
        "promised_completion",
        "agreed_price",
        "price",
        "realized_yield",
        "restarts",
        "killed",
        "returncode",
    }
)


class ApiError(LiveServiceError):
    """A malformed or unserviceable API request.

    Carries the HTTP status the transport layer should answer with,
    plus an optional ``Retry-After`` hint (wall seconds) for the
    backpressure answers — 429 (shed at the queue watermark) and 503
    (draining) — that a well-behaved client turns into backoff.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


#: Longest accepted ``Idempotency-Key`` header value.
MAX_IDEMPOTENCY_KEY = 256


def parse_idempotency_key(raw: Optional[str]) -> Optional[str]:
    """Validate an ``Idempotency-Key`` header value (None passes through)."""
    if raw is None:
        return None
    key = raw.strip()
    if not key:
        raise ApiError("Idempotency-Key must not be empty")
    if len(key) > MAX_IDEMPOTENCY_KEY:
        raise ApiError(
            f"Idempotency-Key longer than {MAX_IDEMPOTENCY_KEY} characters"
        )
    return key


@dataclass(frozen=True)
class BidRequest:
    """A validated bid submission, ready to become a ``TaskBid``."""

    runtime: float
    value: float
    decay: float
    bound: Optional[float]
    client_id: Optional[str]
    argv: Optional[tuple[str, ...]]


def _number(payload: dict, key: str, *, required: bool = True) -> Optional[float]:
    if key not in payload or payload[key] is None:
        if required:
            raise ApiError(f"bid field {key!r} is required")
        return None
    raw = payload[key]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ApiError(f"bid field {key!r} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # a JSON integer past the float range
        raise ApiError(
            f"bid field {key!r} must be finite, got an integer past the float range"
        ) from None
    if not math.isfinite(value):
        raise ApiError(f"bid field {key!r} must be finite, got {raw!r}")
    return value


def parse_bid(payload: object) -> BidRequest:
    """Validate one JSON bid object into a :class:`BidRequest`."""
    if not isinstance(payload, dict):
        raise ApiError(f"bid must be a JSON object, got {type(payload).__name__}")
    known = {"runtime", "value", "decay", "bound", "demand", "client_id", "argv"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ApiError(f"unknown bid fields: {unknown}")

    runtime = _number(payload, "runtime")
    assert runtime is not None
    if runtime <= 0:
        raise ApiError(f"bid runtime must be > 0, got {runtime!r}")
    value = _number(payload, "value")
    assert value is not None
    decay = _number(payload, "decay")
    assert decay is not None
    if decay < 0:
        raise ApiError(f"bid decay must be >= 0, got {decay!r}")
    bound = _number(payload, "bound", required=False)
    if bound is not None and bound < 0:
        raise ApiError(f"bid bound must be >= 0, got {bound!r}")

    demand = payload.get("demand", 1)
    if isinstance(demand, bool) or not isinstance(demand, int) or demand != 1:
        # slack admission projects single-node candidate schedules; the
        # live service quotes through it, so only demand=1 is servable
        raise ApiError(f"live bids support demand=1 only, got {demand!r}")

    client_id = payload.get("client_id")
    if client_id is not None and not isinstance(client_id, str):
        raise ApiError(f"client_id must be a string, got {client_id!r}")

    argv_raw = payload.get("argv")
    argv: Optional[tuple[str, ...]] = None
    if argv_raw is not None:
        if (
            not isinstance(argv_raw, list)
            or not argv_raw
            or not all(isinstance(a, str) for a in argv_raw)
        ):
            raise ApiError("argv must be a non-empty list of strings")
        argv = tuple(argv_raw)

    return BidRequest(
        runtime=runtime,
        value=value,
        decay=decay,
        bound=bound,
        client_id=client_id,
        argv=argv,
    )


def parse_bid_body(body: bytes) -> list[BidRequest]:
    """Parse a ``POST /bids`` body: one bid object or ``{"bids": [...]}``."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # malformed JSON or UTF-8, an integer past the interpreter's
        # digit limit, or nesting past the recursion limit
        raise ApiError(f"request body is not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "bids" in payload:
        batch = payload["bids"]
        if not isinstance(batch, list) or not batch:
            raise ApiError('"bids" must be a non-empty list')
        return [parse_bid(item) for item in batch]
    return [parse_bid(payload)]


# ----------------------------------------------------------------------
# Outbound documents
# ----------------------------------------------------------------------


def bid_result_doc(record) -> dict:
    """The ``POST /bids`` per-bid response: negotiation outcome."""
    doc: dict = {
        "bid_id": record.bid.bid_id,
        "accepted": record.accepted,
        "quotes": record.quotes,
    }
    if record.accepted:
        doc["task_id"] = record.task.tid
        doc["site"] = record.site_id
        doc["expected_completion"] = record.contract.promised_completion
        doc["price"] = record.contract.agreed_price
    else:
        doc["reason"] = record.reason
    return doc


def task_status_doc(record) -> dict:
    """The ``GET /tasks/<id>`` document (keys = ``TASK_STATUS_KEYS``)."""
    task = record.task
    contract = record.contract
    report = record.report
    return {
        "task_id": task.tid,
        "bid_id": record.bid.bid_id,
        "state": task.state.value,
        "site": record.site_id,
        "client_id": record.bid.client_id,
        "submitted_at": record.submitted_at,
        "started_at": task.first_start,
        "completed_at": task.completion,
        "promised_completion": contract.promised_completion,
        "agreed_price": contract.agreed_price,
        "price": contract.actual_price,
        "realized_yield": task.realized_yield,
        "restarts": task.restarts,
        "killed": report.killed if report is not None else False,
        "returncode": report.returncode if report is not None else None,
    }
