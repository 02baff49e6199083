"""The due-time arrival schedule and lateness accounting."""

import json
import socketserver
import threading
import time

import numpy as np
import pytest

from bench import live_workload as live


def test_schedule_is_seeded_and_has_a_fixed_count():
    a = live.poisson_schedule(40.0, 2.0, np.random.default_rng([7, 4]))
    b = live.poisson_schedule(40.0, 2.0, np.random.default_rng([7, 4]))
    c = live.poisson_schedule(40.0, 2.0, np.random.default_rng([8, 4]))
    assert a == b != c
    assert len(a) == len(c) == 80
    assert all(x < y for x, y in zip(a, a[1:]))
    assert a[-1] == pytest.approx(2.0, rel=0.5)  # mean gap is 1/rate


def test_latency_counts_from_the_due_instant():
    shot = live.Shot(due=10.0, sent=10.004, done=10.010, status=200)
    assert shot.late_ms == pytest.approx(4.0)
    assert shot.latency_ms == pytest.approx(10.0)  # not 6 ms: lateness is charged


def test_failures_and_refusals_miss_the_limit():
    shots = [
        live.Shot(due=0.0, done=0.010, status=200),
        live.Shot(due=0.0, done=0.060, status=200),  # too slow
        live.Shot(due=0.0, done=0.001, status=429),  # refused
        live.Shot(due=0.0, done=0.001, status=0),    # transport failure
    ]
    assert live.in_limit_share(shots, 50.0) == 0.25
    # on a host running 2× slow the 60 ms answer is a 30 ms answer at reference pace
    assert live.in_limit_share(shots, 50.0, scale=0.5) == 0.5
    with pytest.raises(ValueError):
        live.in_limit_share([], 50.0)


class _SlowHandler(socketserver.StreamRequestHandler):
    def handle(self):
        while self.rfile.readline() not in (b"\r\n", b""):
            pass
        time.sleep(0.03)
        body = json.dumps({"accepted": False}).encode()
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
            + body
        )


def test_open_loop_charges_queueing_behind_a_stall_to_later_bids():
    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server(("127.0.0.1", 0), _SlowHandler) as server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # 8 bids due 5 ms apart, 30 ms each, 2 connections: the
            # generator cannot keep the schedule, so later bids go out late
            offsets = [0.005 * i for i in range(8)]
            phase = live.open_loop(server.server_address[1], [b""] * 8, offsets)
        finally:
            server.shutdown()
            thread.join(timeout=5)
    assert all(s.ok for s in phase.shots)
    assert phase.shots[0].late_ms < 15.0
    assert phase.shots[-1].late_ms > 40.0
    assert phase.shots[-1].latency_ms > phase.shots[-1].late_ms + 25.0
    assert phase.latency(50) > 30.0
    assert phase.wall_s > 0.1
    dues = [s.due for s in phase.shots]
    assert dues[-1] - dues[0] == pytest.approx(0.035)


def test_open_loop_dilates_the_schedule_with_the_host_pace():
    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server(("127.0.0.1", 0), _SlowHandler) as server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            phase = live.open_loop(
                server.server_address[1], [b""] * 3, [0.0, 0.01, 0.02], dilation=2.0
            )
        finally:
            server.shutdown()
            thread.join(timeout=5)
    dues = [s.due for s in phase.shots]
    assert dues[1] - dues[0] == pytest.approx(0.02)
    assert dues[2] - dues[0] == pytest.approx(0.04)
