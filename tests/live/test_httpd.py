"""The HTTP front end, exercised over real loopback sockets.

A tiny asyncio HTTP/1.1 client (the transport is Connection: close, so
"read until EOF" is the whole protocol) drives every route against a
running LiveService.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.live.api import TASK_STATUS_KEYS, ApiError
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.httpd import _read_request, start_http
from repro.live.service import LiveService


async def _request(port, method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode() + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, resp_body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(resp_body) if resp_body else None


def _scenario(coro_fn, **config_overrides):
    config_overrides.setdefault("rate", 200.0)
    config_overrides.setdefault("sites", (LiveSiteSpec(site_id="live-0", slots=2),))
    # the default watchdog (10x) kills a 0.02 s child that a loaded host
    # forks late; these tests are about the HTTP surface
    config_overrides.setdefault("timeout_factor", 100.0)

    async def main():
        service = LiveService(LiveConfig(**config_overrides))
        await service.start()
        server, port = await start_http(service, "127.0.0.1", 0)
        try:
            return await coro_fn(service, port)
        finally:
            server.close()
            await server.wait_closed()
            await service.drain()
            await service.stop()

    return asyncio.run(main())


GOOD_BID = {"runtime": 4.0, "value": 50.0, "decay": 0.1}


async def _wait_idle(service, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not service.idle and loop.time() < deadline:
        await asyncio.sleep(0.02)


def test_bid_roundtrip_and_task_status():
    async def steps(service, port):
        status, doc = await _request(port, "POST", "/bids", GOOD_BID)
        assert status == 200
        assert doc["accepted"] is True
        assert doc["site"] == "live-0"
        tid = doc["task_id"]
        await _wait_idle(service)
        status, task_doc = await _request(port, "GET", f"/tasks/{tid}")
        assert status == 200
        assert set(task_doc) == TASK_STATUS_KEYS
        assert task_doc["state"] == "completed"
        assert task_doc["returncode"] == 0
        status, listing = await _request(port, "GET", "/tasks")
        assert status == 200
        assert [t["task_id"] for t in listing["tasks"]] == [tid]

    _scenario(steps)


def test_batch_bids_and_status_route():
    async def steps(service, port):
        status, doc = await _request(
            port, "POST", "/bids", {"bids": [GOOD_BID, GOOD_BID, GOOD_BID]}
        )
        assert status == 200
        assert len(doc["results"]) == 3
        assert all(r["accepted"] for r in doc["results"])
        await _wait_idle(service)
        status, state = await _request(port, "GET", "/status")
        assert status == 200
        assert state["service"] == "repro.live"
        assert state["tasks"] == {"completed": 3}
        assert state["sites"][0]["peak_running"] == 2  # the slot cap held

    _scenario(steps)


def test_error_statuses():
    async def steps(service, port):
        checks = [
            ("POST", "/bids", {"runtime": -1, "value": 1, "decay": 0}, 400),
            ("POST", "/bids", None, 400),  # empty body is not JSON
            ("GET", "/tasks/999", None, 404),
            ("GET", "/tasks/not-a-number", None, 404),
            ("GET", "/nope", None, 404),
            ("DELETE", "/bids", None, 405),
            ("POST", "/status", None, 405),
        ]
        for method, path, payload, expected in checks:
            status, doc = await _request(port, method, path, payload)
            assert status == expected, (method, path, status)
            assert "error" in doc

    _scenario(steps)


def test_healthz_and_metrics_without_obs():
    async def steps(service, port):
        assert await _request(port, "GET", "/healthz") == (200, {"ok": True})
        status, snapshot = await _request(port, "GET", "/metrics")
        assert status == 200
        assert snapshot["metrics"] == {}  # no registry attached in this scenario
        assert snapshot["rates"]["window_s"] == 60.0
        assert snapshot["rates"]["acceptance_pct"] is None  # no bids yet

    _scenario(steps)


async def _raw_request(port, path, headers):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    extra = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\n{extra}"
        f"Connection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    content_type = ""
    for line in head.decode().split("\r\n"):
        if line.lower().startswith("content-type:"):
            content_type = line.partition(":")[2].strip()
    return status, content_type, body


def test_metrics_content_negotiation():
    async def steps(service, port):
        status, _ = await _request(port, "POST", "/bids", GOOD_BID)
        assert status == 200
        await _wait_idle(service)

        # default (no Accept header): JSON document with windowed rates
        status, content_type, body = await _raw_request(port, "/metrics", {})
        assert status == 200
        assert content_type == "application/json"
        doc = json.loads(body)
        assert doc["rates"]["acceptance_pct"] == 100.0
        assert doc["rates"]["roundtrip_p50_us"] > 0

        # Accept: text/plain: Prometheus exposition text
        status, content_type, body = await _raw_request(
            port, "/metrics", {"Accept": "text/plain"}
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode()
        assert "# TYPE repro_service_bids_per_s gauge" in text
        assert "repro_service_acceptance_pct 100.0" in text

        # an Accept header preferring JSON still gets JSON
        status, content_type, _ = await _raw_request(
            port, "/metrics", {"Accept": "application/json"}
        )
        assert status == 200
        assert content_type == "application/json"

    _scenario(steps)


def test_metrics_prometheus_with_obs_attached():
    """The text exposition must survive a real obs snapshot.

    `repro serve` attaches an Observability whose snapshot() nests the
    instrument map under "metrics" next to non-instrument sections
    ("runs", "spans") — regression test for the 500 this once caused.
    """
    from repro.obs import Observability

    async def main():
        obs = Observability(spans=True)
        obs.begin_run("live")
        config = LiveConfig(
            rate=200.0,
            sites=(LiveSiteSpec(site_id="live-0", slots=2),),
            timeout_factor=100.0,  # as in _scenario
        )
        service = LiveService(config, obs=obs)
        await service.start()
        server, port = await start_http(service, "127.0.0.1", 0)
        try:
            status, _ = await _request(port, "POST", "/bids", GOOD_BID)
            assert status == 200
            await _wait_idle(service)

            status, content_type, body = await _raw_request(
                port, "/metrics", {"Accept": "text/plain"}
            )
            assert status == 200
            assert content_type.startswith("text/plain")
            text = body.decode()
            assert "# TYPE repro_tasks_completed counter" in text
            assert "repro_service_acceptance_pct 100.0" in text

            # the JSON branch still returns the full snapshot document
            status, doc = await _request(port, "GET", "/metrics")
            assert status == 200
            assert doc["metrics"]["metrics"]["tasks.completed"]["value"] == 1
        finally:
            server.close()
            await server.wait_closed()
            await service.drain()
            await service.stop()

    asyncio.run(main())


def test_draining_service_answers_503_but_still_reports():
    async def steps(service, port):
        status, _ = await _request(port, "POST", "/bids", GOOD_BID)
        assert status == 200
        await _wait_idle(service)
        await service.drain()
        status, doc = await _request(port, "POST", "/bids", GOOD_BID)
        assert status == 503
        assert "draining" in doc["error"]
        status, state = await _request(port, "GET", "/status")
        assert status == 200
        assert state["draining"] is True

    _scenario(steps)


def _read_fed(raw: bytes):
    """``_read_request`` on bytes fed to a bare StreamReader: no socket."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(main())


def test_read_request_refuses_a_bad_content_length():
    head = b"POST /bids HTTP/1.1\r\nContent-Length: %s\r\n\r\n{}"
    # a negative length reached readexactly(-5), whose ValueError was a 500
    for bad in (b"-5", b"five"):
        with pytest.raises(ApiError, match="bad Content-Length") as info:
            _read_fed(head % bad)
        assert info.value.status == 400
    with pytest.raises(ApiError, match="too large") as info:
        _read_fed(head % str((1 << 20) + 1).encode())
    assert info.value.status == 413
    assert _read_fed(head % b"2") == ("POST", "/bids", b"{}", "", None)
    assert _read_fed(head % b"0")[2] == b""
