"""Idempotent intake and overload shedding, service- and HTTP-level.

The service half drives ``handle_bids`` / ``_check_intake`` directly;
the HTTP half reads raw response bytes off a loopback socket so the
headers clients key on (``Idempotency-Replayed``, ``Retry-After``) and
the 429 status line are asserted verbatim.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.domain import MAX_MAGNITUDE
from repro.live.api import ApiError, BidRequest
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.httpd import start_http
from repro.live.service import RETRY_AFTER_S, IdempotencyTable, LiveService
from repro.obs.flight import FlightRecorder
from repro.sim import SimClock, Simulator

from tests.live.scripted import scripted_service

GOOD_BID = {"runtime": 4.0, "value": 50.0, "decay": 0.1}


def _config(**overrides):
    overrides.setdefault("rate", 200.0)
    overrides.setdefault("sites", (LiveSiteSpec(site_id="live-0", slots=2),))
    return LiveConfig(**overrides)


def _bid(i=0):
    return BidRequest(
        runtime=4.0, value=50.0, decay=0.1, bound=None,
        client_id=f"client-{i}", argv=None,
    )


# ----------------------------------------------------------------------
# IdempotencyTable
# ----------------------------------------------------------------------

def test_idempotency_table_first_response_wins():
    table = IdempotencyTable(capacity=8)
    table.put("k", {"answer": 1})
    table.put("k", {"answer": 2})  # a late duplicate must not overwrite
    assert table.get("k") == {"answer": 1}
    assert table.hits == 1


def test_idempotency_table_evicts_oldest_at_capacity():
    table = IdempotencyTable(capacity=2)
    table.put("a", 1)
    table.put("b", 2)
    table.put("c", 3)
    assert "a" not in table and "b" in table and "c" in table
    assert len(table) == 2


def test_idempotency_table_rejects_zero_capacity():
    from repro.errors import LiveServiceError

    with pytest.raises(LiveServiceError):
        IdempotencyTable(capacity=0)


# ----------------------------------------------------------------------
# Service-level dedup and shedding
# ----------------------------------------------------------------------

def test_handle_bids_replays_without_renegotiating():
    service, _ = scripted_service(_config())
    doc, replayed = service.handle_bids([_bid(0)], idempotency_key="k-1")
    assert not replayed
    negotiations = service.broker.negotiations
    replay, flag = service.handle_bids([_bid(0)], idempotency_key="k-1")
    assert flag and replay is doc
    assert service.broker.negotiations == negotiations, "replay must not negotiate"
    assert json.dumps(replay) == json.dumps(doc)


def test_keyed_response_is_journaled_before_reply():
    flight = FlightRecorder(clock_domain="wall")
    service, _ = scripted_service(_config(), flight=flight)
    doc, _ = service.handle_bids([_bid(0)], idempotency_key="k-1")
    [response_intent] = [
        e for e in flight.recording().of_kind("intent") if e["action"] == "response"
    ]
    assert response_intent["idempotency_key"] == "k-1"
    assert response_intent["response"] == doc
    # the unkeyed path stays journal-quiet: no response intent
    service.handle_bids([_bid(1)])
    assert len([
        e for e in flight.recording().of_kind("intent") if e["action"] == "response"
    ]) == 1


def test_watermark_sheds_with_retry_after_and_journal_record():
    flight = FlightRecorder(clock_domain="wall")
    service, _ = scripted_service(
        _config(queue_watermark=2), flight=flight
    )
    # nothing ever exits: once the slots are taken, accepted tasks stay
    # queued and push the depth up
    while service.queued_total < 2:
        service.submit_bid(_bid(service.queued_total))
    with pytest.raises(ApiError) as excinfo:
        service.submit_bid(_bid(99))
    assert excinfo.value.status == 429
    assert excinfo.value.retry_after == RETRY_AFTER_S
    assert service.sheds == 1
    [shed] = flight.recording().of_kind("shed")
    assert shed["queued"] == 2 and shed["watermark"] == 2
    assert shed["retry_after_s"] == RETRY_AFTER_S
    assert service.status()["sheds"] == 1


def test_batch_admission_is_atomic():
    """One intake check per request: a batch is admitted whole or not at
    all — a mid-batch 429 would discard negotiated awards and make the
    client's idempotent retry double-award them."""
    service, _ = scripted_service(_config(queue_watermark=2))
    records = service.submit_bids([_bid(i) for i in range(6)])
    assert len(records) == 6, "an admitted batch negotiates every bid"
    with pytest.raises(ApiError) as excinfo:
        service.submit_bids([_bid(99)])
    assert excinfo.value.status == 429


def test_zero_watermark_disables_shedding():
    service, _ = scripted_service(_config(queue_watermark=0))
    for i in range(8):
        service.submit_bid(_bid(i))
    assert service.sheds == 0


# ----------------------------------------------------------------------
# HTTP headers, read raw off the socket
# ----------------------------------------------------------------------

async def _raw(port, method, path, payload=None, headers=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n{extra}"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, resp_body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status_line = lines[0]
    resp_headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(": ")
        resp_headers[name.lower()] = value
    return status_line, resp_headers, resp_body


def _scenario(coro_fn, scripted=False, **config_overrides):
    async def main():
        config = _config(**config_overrides)
        service = scripted_service(config)[0] if scripted else LiveService(config)
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


def _scenario_stuck(coro_fn, **config_overrides):
    # on scripted executors no run ever ends, so the queue only grows and
    # drain must abandon it: no grace, so the scenario exits at once
    config_overrides.setdefault("drain_grace", 0.0)
    return _scenario(coro_fn, scripted=True, **config_overrides)


def test_idempotent_replay_is_byte_identical_with_header():
    async def steps(service, port):
        key = {"Idempotency-Key": "http-key-1"}
        status1, headers1, body1 = await _raw(port, "POST", "/bids", GOOD_BID, key)
        assert status1.startswith("HTTP/1.1 200")
        assert "idempotency-replayed" not in headers1
        status2, headers2, body2 = await _raw(port, "POST", "/bids", GOOD_BID, key)
        assert status2.startswith("HTTP/1.1 200")
        assert headers2["idempotency-replayed"] == "true"
        assert body2 == body1, "replay must return the original bytes"
        # a different key negotiates fresh
        _, headers3, body3 = await _raw(
            port, "POST", "/bids", GOOD_BID, {"Idempotency-Key": "http-key-2"}
        )
        assert "idempotency-replayed" not in headers3
        assert json.loads(body3)["bid_id"] != json.loads(body1)["bid_id"]

    _scenario(steps)


def test_shed_answers_429_with_retry_after():
    async def steps(service, port):
        # no run ever ends in this scenario, so past the two slots every
        # accepted bid stays queued and the depth reaches the watermark
        while service.queued_total < 2:
            service.submit_bid(_bid(service.queued_total))
        status_line, headers, body = await _raw(port, "POST", "/bids", GOOD_BID)
        assert status_line == "HTTP/1.1 429 Too Many Requests"
        assert float(headers["retry-after"]) == RETRY_AFTER_S
        assert "watermark" in json.loads(body)["error"]

    _scenario_stuck(steps, queue_watermark=2)


def test_draining_503_carries_retry_after():
    async def steps(service, port):
        await service.drain()
        status_line, headers, _ = await _raw(port, "POST", "/bids", GOOD_BID)
        assert status_line.startswith("HTTP/1.1 503")
        assert float(headers["retry-after"]) == RETRY_AFTER_S

    _scenario(steps)


def test_status_reports_durability_counters():
    async def steps(service, port):
        await _raw(
            port, "POST", "/bids", GOOD_BID, {"Idempotency-Key": "s-1"}
        )
        await _raw(
            port, "POST", "/bids", GOOD_BID, {"Idempotency-Key": "s-1"}
        )
        _, _, body = await _raw(port, "GET", "/status")
        status = json.loads(body)
        assert status["sheds"] == 0
        assert status["idempotency"]["entries"] == 1
        assert status["idempotency"]["hits"] == 1
        assert status["idempotency"]["capacity"] == 1024
        assert status["queue_watermark"] == 0

    _scenario(steps)


def test_a_batch_past_the_domain_is_a_400_with_nothing_negotiated():
    """A bid one float past ``repro.domain.MAX_MAGNITUDE`` refuses its
    whole batch at parse: no bid of it is negotiated or journaled."""
    flight = FlightRecorder()

    async def main():
        service, _ = scripted_service(_config(), flight=flight)
        await service.start()
        server, port = await start_http(service, "127.0.0.1", 0)
        try:
            journaled = len(flight.recording().events)
            past = {**GOOD_BID, "value": math.nextafter(MAX_MAGNITUDE, math.inf)}
            status_line, _, body = await _raw(port, "POST", "/bids", {"bids": [GOOD_BID, past]})
            assert status_line.startswith("HTTP/1.1 400")
            assert "'value' must be finite and within" in json.loads(body)["error"]
            assert service.broker.negotiations == 0
            assert len(flight.recording().events) == journaled
            edge = {**GOOD_BID, "value": MAX_MAGNITUDE}
            status_line, _, _ = await _raw(port, "POST", "/bids", {"bids": [GOOD_BID, edge]})
            assert status_line.startswith("HTTP/1.1 200")
            assert service.broker.negotiations == 2
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()

    asyncio.run(main())


def test_oversized_idempotency_key_is_a_400():
    async def steps(service, port):
        status_line, _, body = await _raw(
            port, "POST", "/bids", GOOD_BID, {"Idempotency-Key": "x" * 300}
        )
        assert status_line.startswith("HTTP/1.1 400")
        assert "Idempotency-Key" in json.loads(body)["error"]

    _scenario(steps)


def test_a_batch_with_one_bad_bid_awards_nothing():
    """A bid whose floor sits above its value (``value −80, bound 0``) in
    the second slot of a batch: the parser refuses it before the first
    bid is negotiated, so the batch answers 400, awards nothing and
    journals nothing — and a retry under the same key does the same,
    where an award made before a 500 would be made again."""
    bad = {"runtime": 1, "value": -80, "decay": 1, "bound": 0}
    batch = {"bids": [GOOD_BID, bad]}
    key = {"Idempotency-Key": "bad-batch"}

    async def main():
        flight = FlightRecorder(clock_domain="wall")
        service, _ = scripted_service(_config(), flight=flight, clock=SimClock(Simulator()))
        journaled = len(flight.recording())
        await service.start()
        server, port = await start_http(service, "127.0.0.1", 0)
        try:
            for _ in range(2):
                status_line, _, body = await _raw(port, "POST", "/bids", batch, key)
                assert status_line.startswith("HTTP/1.1 400")
                assert "floor above the maximum value" in json.loads(body)["error"]
                assert service.broker.negotiations == 0
                assert not service.task_records()
                assert "bad-batch" not in service.idempotency
                assert len(flight.recording()) == journaled
        finally:
            # nothing to drain: no bid was awarded
            server.close()
            await server.wait_closed()
            await service.stop()

    asyncio.run(main())
