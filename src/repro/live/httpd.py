"""Minimal stdlib HTTP/1.1 front end for the live service.

Built directly on :func:`asyncio.start_server` — no web framework, no
new dependencies.  One connection, one request, one JSON response
(``Connection: close``); the CLI-and-curl audience needs nothing more,
and the transport stays small enough to audit in one sitting.

Routes::

    POST /bids          submit one bid or {"bids": [...]} — negotiated
                        synchronously, returns outcome(s)
    GET  /tasks         every contracted task's status document
    GET  /tasks/<id>    one task's status document
    GET  /status        service/broker/site counters
    GET  /metrics       observability snapshot + windowed rates; served
                        as Prometheus text when the client sends
                        ``Accept: text/plain``, JSON otherwise
    GET  /healthz       liveness probe: 503 once a journal write has
                        failed and intake is closed

All request handling runs on the service's event loop, so handlers may
touch service state without locks.
"""

from __future__ import annotations

import asyncio
import json

from typing import Optional

from repro.live.api import (
    ApiError,
    parse_bid_body,
    parse_idempotency_key,
    task_status_doc,
)
from repro.live.service import LiveService
from repro.obs.prom import PROMETHEUS_CONTENT_TYPE, prometheus_text

#: Largest accepted request body, bytes.
MAX_BODY = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _PlainText(str):
    """Marker: a route payload already rendered as Prometheus text."""


def _response(
    status: int, payload: object, headers: Optional[dict[str, str]] = None
) -> bytes:
    if isinstance(payload, _PlainText):
        body = payload.encode("utf-8")
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += "Connection: close\r\n\r\n"
    return head.encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, str, Optional[str]]:
    """Parse the request line, headers, and body; raises ApiError.

    A client that hangs up mid-body raises ``IncompleteReadError``.
    """
    content_length: Optional[int] = None
    accept = ""
    idempotency_key: Optional[str] = None
    try:
        request_line = await reader.readline()
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) != 3:
            raise ApiError(f"malformed request line: {request_line[:80]!r}")
        method, path, _version = parts
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            header = name.strip().lower()
            if header == "content-length":
                digits = value.strip()
                # ASCII digits only: int() also takes "+3", "1_0" and other
                # scripts' digits, and refuses past 4 300 of them
                if not (digits.isascii() and digits.isdigit()) or len(digits) > 4300:
                    raise ApiError(f"bad Content-Length: {digits[:80]!r}")
                length = int(digits)
                if content_length is not None and length != content_length:
                    # RFC 9112 §6.3: conflicting lengths leave no framing
                    raise ApiError("conflicting Content-Length headers")
                content_length = length
            elif header == "accept":
                accept = value.strip()
            elif header == "idempotency-key":
                key = value.strip()
                if idempotency_key is not None and key != idempotency_key:
                    # a retry repeating only one of them would not replay
                    raise ApiError("conflicting Idempotency-Key headers")
                idempotency_key = key
    except ConnectionError as exc:
        raise ApiError(f"unreadable request: {exc}") from exc
    except ValueError as exc:
        # readline turns the reader's LimitOverrunError into a ValueError
        raise ApiError(f"request line or header too long: {exc}") from exc
    if content_length is None:
        content_length = 0
    if content_length > MAX_BODY:
        raise ApiError(f"body too large ({content_length} bytes)", status=413)
    body = await reader.readexactly(content_length) if content_length else b""
    return method, path, body, accept, idempotency_key


def _route(
    service: LiveService,
    method: str,
    path: str,
    body: bytes,
    accept: str = "",
    idempotency_key: Optional[str] = None,
) -> tuple[int, object, dict[str, str]]:
    if method == "POST" and path == "/bids":
        key = parse_idempotency_key(idempotency_key)
        requests = parse_bid_body(body)
        doc, replayed = service.handle_bids(requests, idempotency_key=key)
        headers = {"Idempotency-Replayed": "true"} if replayed else {}
        return 200, doc, headers
    if method == "GET" and path == "/tasks":
        return 200, {"tasks": [task_status_doc(r) for r in service.task_records()]}, {}
    if method == "GET" and path.startswith("/tasks/"):
        raw = path[len("/tasks/") :]
        try:
            tid = int(raw)
        except ValueError:
            raise ApiError(f"task id must be an integer, got {raw!r}", status=404) from None
        record = service.record_of_task(tid)
        if record is None:
            raise ApiError(f"no such task: {tid}", status=404)
        return 200, task_status_doc(record), {}
    if method == "GET" and path == "/status":
        return 200, service.status(), {}
    if method == "GET" and path == "/metrics":
        snapshot = service.obs.snapshot() if service.obs is not None else {}
        rates = service.rate_snapshot()
        if "text/plain" in accept.lower():
            gauges = {f"service.{key}": value for key, value in rates.items()}
            # The obs snapshot nests instruments under "metrics" next to
            # runs/spans sections; the exposition wants instruments only.
            instruments = snapshot.get("metrics", snapshot)
            return 200, _PlainText(prometheus_text(instruments, extra_gauges=gauges)), {}
        return 200, {"metrics": snapshot, "rates": rates}, {}
    if method == "GET" and path == "/healthz":
        if service.journal_error is not None:
            return 503, {"ok": False, "journal_error": str(service.journal_error)}, {}
        return 200, {"ok": True}, {}
    if path in ("/bids", "/tasks", "/status", "/metrics", "/healthz") or path.startswith(
        "/tasks/"
    ):
        raise ApiError(f"{method} not allowed on {path}", status=405)
    raise ApiError(f"no such route: {path}", status=404)


async def _handle(
    service: LiveService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        headers: dict[str, str] = {}
        try:
            method, path, body, accept, idem = await _read_request(reader)
            # the fsync in this chain runs only under fsync=always — the
            # operator's explicit durability-over-latency choice;
            # interval-policy syncs are offloaded to the thread pool
            # (LiveService.start).  The blocking-call guard in
            # tests/live/conftest.py fails any other stall on this loop
            status, payload, headers = _route(service, method, path, body, accept, idem)
        except ApiError as exc:
            status, payload = exc.status, {"error": str(exc)}
            if exc.retry_after is not None:
                headers["Retry-After"] = f"{exc.retry_after:g}"
        except asyncio.IncompleteReadError:
            return  # client hung up mid-request; nothing to answer
        except Exception as exc:  # defensive: never kill the server loop
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        writer.write(_response(status, payload, headers))
        await writer.drain()
    except ConnectionError:
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def start_http(
    service: LiveService, host: str, port: int
) -> tuple[asyncio.AbstractServer, int]:
    """Bind the front end; returns the server and the actual port."""

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        await _handle(service, reader, writer)

    server = await asyncio.start_server(handler, host=host, port=port)
    sockets = server.sockets
    assert sockets, "server bound no sockets"
    actual_port: int = sockets[0].getsockname()[1]
    return server, actual_port
