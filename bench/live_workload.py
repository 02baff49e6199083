"""``live_bids``: the live service as its own process, under load.

The load generator lives here: a seeded Poisson schedule of due
instants, at most two connections, every latency timed from the instant
the bid was *due* (so a stall charges the bids queued behind it), and
the generator's own lateness reported beside the latencies.

The traced variant hosts ``LiveService`` + ``start_http`` inside this
process, wraps the per-request layers in spans and sends bids over one
connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from bench import child_env, hostspeed, stats
from bench.sim_workloads import market_spec
from bench.spec import (
    LATENCY_LIMIT_MS,
    LIVE_CLOCK_RATE,
    LIVE_RATE_HI,
    LIVE_RATE_LO,
    Sizes,
)
from bench.tracing import LayerTime, Tracer
from repro.workload import generate_trace

_now = time.perf_counter

SITES = 2
SLOTS = 2
CONNECTIONS = 2
HOST = "127.0.0.1"


# ----------------------------------------------------------------------
# Arrival schedule and lateness accounting
# ----------------------------------------------------------------------

def poisson_schedule(rate: float, duration_s: float, rng: np.random.Generator) -> list[float]:
    """Due offsets (seconds from phase start) of ``round(rate × duration)``
    arrivals with exponential gaps — the count is fixed so phases compare
    across commits; the gaps are the seeded part."""
    count = max(1, round(rate * duration_s))
    return np.cumsum(rng.exponential(1.0 / rate, count)).tolist()


@dataclass
class Shot:
    """One bid as the generator saw it (all instants on one monotonic clock)."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: transport failure
    doc: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        """Due instant to full response: includes how late it was sent."""
        return 1e3 * (self.done - self.due)

    @property
    def late_ms(self) -> float:
        """How long after its due instant the generator sent it."""
        return 1e3 * (self.sent - self.due)


def in_limit_share(shots: Sequence[Shot], limit_ms: float, scale: float = 1.0) -> float:
    """Bids answered 200 within *limit_ms* of due ÷ bids due; failures,
    refusals and unanswered bids all count as misses.  *scale* is the
    host-pace correction applied to each latency before the test."""
    if not shots:
        raise ValueError("no bids were due")
    hits = sum(1 for s in shots if s.ok and s.latency_ms * scale <= limit_ms)
    return hits / len(shots)


#: Bids per block of the 400/s phase.  At that rate two connections run
#: at about half their capacity, so queueing amplifies every wobble of
#: the service time and whole-phase p50s did not repeat (spread 0.24
#: across seeds).  Server, generator and forked tasks fill both cores: a
#: busy neighbour slows a stretch of bids and never speeds one up.  So
#: the phase is cut into blocks of consecutive bids and the run reports
#: the lower quartile of the block p50s over all cycles (spread 0.10); a
#: real regression moves every block.
HI_BLOCK = 80


def blocks(items: Sequence[Any], size: int) -> list[Sequence[Any]]:
    """Consecutive blocks of *size* (a short tail joins the last block)."""
    if len(items) < 2 * size:
        return [items]
    cuts = list(range(0, len(items) - size + 1, size))
    return [items[a:b] for a, b in zip(cuts, [*cuts[1:], len(items)])]


@dataclass
class PhaseStats:
    shots: list[Shot]
    wall_s: float
    #: host-pace correction for this phase's times (``hostspeed.corrected(1, …)``)
    scale: float = 1.0
    #: how far the open-loop schedule was stretched (see :func:`open_loop`)
    dilation: float = 1.0

    def latency(self, q: float) -> float:
        """Pace-corrected latency percentile (ms) over the whole phase."""
        return self.scale * stats.percentile([s.latency_ms for s in self.shots], q)

    def block_p50s(self, size: int) -> list[float]:
        """Pace-corrected p50 (ms) of each block of bids, in due order."""
        return [
            self.scale * stats.percentile([s.latency_ms for s in block], 50)
            for block in blocks(self.shots, size)
        ]

    def in_limit_share(self, limit_ms: float) -> float:
        return in_limit_share(self.shots, limit_ms, self.scale)

    @property
    def accept_share(self) -> float:
        return sum(1 for s in self.shots if s.doc and s.doc.get("accepted")) / len(self.shots)


# ----------------------------------------------------------------------
# Minimal HTTP client (the server answers one request per connection)
# ----------------------------------------------------------------------

def http_request(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection((HOST, port), timeout=30) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload


def get_json(port: int, path: str) -> Any:
    status, payload = http_request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


def _fire(port: int, body: bytes, shot: Shot) -> None:
    shot.sent = _now()
    try:
        shot.status, payload = http_request(port, "POST", "/bids", body)
        shot.doc = json.loads(payload)
    except (OSError, ValueError, IndexError):
        shot.status = 0
    shot.done = _now()


class BidStream:
    """The bid bodies of one run, handed out in trace order."""

    def __init__(self, bids: int, seed: int) -> None:
        trace = generate_trace(market_spec(bids), seed=seed)
        self.runtime = trace.runtime.tolist()
        self.bodies = [
            json.dumps(
                {
                    "runtime": runtime,
                    "value": value,
                    "decay": decay,
                    "argv": ["sleep", f"{runtime / LIVE_CLOCK_RATE:.6f}"],
                }
            ).encode("utf-8")
            for runtime, value, decay in zip(
                self.runtime, trace.value.tolist(), trace.decay.tolist()
            )
        ]
        self._next = 0

    def take(self, count: int) -> list[tuple[bytes, float]]:
        picked = [
            (self.bodies[i % len(self.bodies)], self.runtime[i % len(self.bodies)])
            for i in range(self._next, self._next + count)
        ]
        self._next += count
        return picked


def _run_workers(work: Callable[[], None], workers: int) -> None:
    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    port: int, bodies: Sequence[bytes], offsets: Sequence[float], dilation: float = 1.0
) -> PhaseStats:
    """Send ``bodies[i]`` at ``start + dilation × offsets[i]`` over ≤ 2 connections.

    *offsets* are in seconds at the reference pace; *dilation* is the
    host's pace right now (:func:`bench.hostspeed.pace`).  A host running
    twice as slow gets the same bids twice as far apart, so the offered
    load stays the same share of what the server can take and a slow
    stretch of the host does not tip the 400/s phase into saturation.
    """
    start = _now() + 0.02
    shots = [Shot(due=start + dilation * offset) for offset in offsets]
    cursor = iter(range(len(shots)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            wait = shots[index].due - _now()
            if wait > 0:
                time.sleep(wait)
            _fire(port, bodies[index], shots[index])

    _run_workers(work, CONNECTIONS)
    return PhaseStats(shots, max(s.done for s in shots) - start, dilation=dilation)


def closed_loop(port: int, bodies: Sequence[bytes], connections: int = CONNECTIONS) -> PhaseStats:
    """Each connection sends its next bid as soon as the last one answered."""
    shots = [Shot(due=0.0) for _ in bodies]
    cursor = iter(range(len(shots)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            shots[index].due = _now()
            _fire(port, bodies[index], shots[index])

    started = _now()
    _run_workers(work, connections)
    return PhaseStats(shots, _now() - started)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------

class Server:
    """``repro serve`` as a child process; ``setup_s`` is spawn → healthz 200."""

    def __init__(self, workdir: str, label: str = "serve") -> None:
        self.journal = os.path.join(workdir, f"{label}.journal.jsonl")
        self.port_file = os.path.join(workdir, f"{label}.port")
        self.log = os.path.join(workdir, f"{label}.log")
        for path in (self.journal, self.port_file):
            if os.path.exists(path):
                os.remove(path)
        before = hostspeed.sample()
        started = _now()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--sites", str(SITES), "--slots", str(SLOTS),
                    "--rate", f"{LIVE_CLOCK_RATE:g}", "--threshold", "180",
                    "--journal", self.journal, "--fsync", "interval",
                    "--port-file", self.port_file,
                    # watchdog off.  Its kill races the exit notice of a
                    # task shorter than a poll tick (10 × runtime < 50 ms):
                    # proc.kill() raises ProcessLookupError, the slot is
                    # never vacated and the server never goes idle again
                    # (about 1 run in 75 here).  The tasks are sleeps and
                    # cannot hang, so nothing measured needs the watchdog.
                    "--timeout-factor", "0",
                ],
                env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._await_port(started + 60.0)
            self._await_health(started + 60.0)
        except BaseException:
            self.kill()
            raise
        wall = _now() - started
        self.setup_s = hostspeed.corrected(wall, before, hostspeed.sample())

    def _await_port(self, deadline: float) -> int:
        while _now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode} at start-up")
            try:
                with open(self.port_file) as handle:
                    text = handle.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.002)
        raise RuntimeError("repro serve never wrote its port file")

    def _await_health(self, deadline: float) -> None:
        while _now() < deadline:
            try:
                if http_request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def wait_idle(self, timeout_s: float = 60.0) -> dict:
        deadline = _now() + timeout_s
        while True:
            status = get_json(self.port, "/status")
            if status["queued"] == 0 and all(s["running"] == 0 for s in status["sites"]):
                return status
            if _now() > deadline:
                raise RuntimeError(
                    f"the server never went idle: queued={status['queued']} "
                    f"running={[s['running'] for s in status['sites']]} "
                    f"tasks={status['tasks']} errors={status['errors'][:3]}"
                )
            time.sleep(0.02)

    def proc_stats(self) -> dict[str, float]:
        """Peak RSS (MB) and CPU seconds of the server, from /proc."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            hwm_kb = next(
                int(line.split()[1]) for line in handle if line.startswith("VmHWM:")
            )
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return {"peak_rss_mb": hwm_kb / 1024.0, "cpu_s": ticks / os.sysconf("SC_CLK_TCK")}

    def terminate(self) -> tuple[int, float]:
        """SIGTERM, wait for the drain; returns (exit code, drain seconds)."""
        started = _now()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not drain within 60 s") from None
        return code, _now() - started

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_probe(workdir: str) -> float:
    """Start a server, wait for /healthz, stop it: one ``setup_s`` sample."""
    server = Server(workdir, label="probe")
    try:
        return server.setup_s
    finally:
        server.kill()


# ----------------------------------------------------------------------
# The untraced run
# ----------------------------------------------------------------------

@dataclass
class LiveResult:
    e2e: dict[str, float]
    driver: dict[str, float]
    ext_layers: dict[str, float]
    attempted: int
    failed: int
    breaches: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    host_pace: float = 1.0


def _settlement_ms(docs_by_task: dict[int, dict], awarded: Sequence[tuple[int, float]]):
    """Per awarded bid: settle overhead, queue wait, run overhead (ms)."""
    settle, queue_wait, run_over = [], [], []
    for task_id, runtime in awarded:
        doc = docs_by_task.get(task_id)
        if doc is None or doc["completed_at"] is None or doc["started_at"] is None:
            continue
        scale = 1e3 / LIVE_CLOCK_RATE
        settle.append((doc["completed_at"] - doc["submitted_at"] - runtime) * scale)
        queue_wait.append((doc["started_at"] - doc["submitted_at"]) * scale)
        run_over.append((doc["completed_at"] - doc["started_at"] - runtime) * scale)
    return settle, queue_wait, run_over


def audit_journal(journal: str) -> tuple[list[str], float]:
    """``repro audit`` on the drained journal: (breaches, wall seconds)."""
    started = _now()
    audit = subprocess.run(
        [sys.executable, "-m", "repro", "audit", journal, "--format", "json"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    wall = _now() - started
    if audit.returncode != 0:
        return [f"repro audit exited {audit.returncode}"], wall
    counts = json.loads(audit.stdout)["counts"]
    if counts.get("awards") != counts.get("settlements"):
        return [
            f"{counts.get('awards')} awards but {counts.get('settlements')} settlements"
        ], wall
    return [], wall


def run_live(sizes: Sizes, seed: int, seconds: float, workdir: str, cycles: int) -> LiveResult:
    rng = np.random.default_rng([seed, 4])
    phase_s = sizes.live_phase_share * seconds
    per_cycle = round(LIVE_RATE_LO * phase_s) + round(LIVE_RATE_HI * phase_s) + sizes.live_sat_bids
    stream = BidStream(per_cycle * cycles, seed)

    server = Server(workdir)
    breaches: list[str] = []
    phases: dict[str, list[PhaseStats]] = {"lo": [], "hi": [], "sat": []}
    lo_awards: list[tuple[int, float]] = []
    paces = [hostspeed.sample()]

    def paced(phase: PhaseStats) -> PhaseStats:
        """Wait for idle, then stamp *phase* with the host pace around it.
        Both samples are taken while nothing is queued, running or being
        answered, so they see the host, not the load."""
        server.wait_idle()
        paces.append(hostspeed.sample())
        phase.scale = hostspeed.corrected(1.0, paces[-2], paces[-1])
        return phase

    try:
        for _cycle in range(cycles):
            for name, rate in (("lo", LIVE_RATE_LO), ("hi", LIVE_RATE_HI)):
                offsets = poisson_schedule(rate, phase_s, rng)
                picked = stream.take(len(offsets))
                phase = paced(
                    open_loop(
                        server.port, [b for b, _ in picked], offsets,
                        dilation=hostspeed.pace(paces[-3:]),
                    )
                )
                phases[name].append(phase)
                if name == "lo":
                    lo_awards += [
                        (shot.doc["task_id"], runtime)
                        for shot, (_, runtime) in zip(phase.shots, picked)
                        if shot.doc and shot.doc.get("accepted")
                    ]
            picked = stream.take(sizes.live_sat_bids)
            phases["sat"].append(paced(closed_loop(server.port, [b for b, _ in picked])))
        status = server.wait_idle()
        tasks = {doc["task_id"]: doc for doc in get_json(server.port, "/tasks")["tasks"]}
        proc = server.proc_stats()
        if status["errors"]:
            breaches.append(f"/status reports errors: {status['errors'][:3]}")
        code, drain_s = server.terminate()
        if code != 0:
            breaches.append(f"repro serve exited {code}")
    finally:
        server.kill()

    audit_breaches, audit_s = audit_journal(server.journal)
    breaches += audit_breaches

    shots = [s for group in phases.values() for phase in group for s in phase.shots]
    attempted = len(shots)
    failed = sum(1 for s in shots if not s.ok)
    settle, queue_wait, run_over = _settlement_ms(tasks, lo_awards)
    if not settle:
        breaches.append("no awarded lo-phase bid completed")
        settle = queue_wait = run_over = [0.0]

    def across(name: str, fn: Callable[[PhaseStats], float]) -> float:
        return stats.median([fn(phase) for phase in phases[name]])

    hi_share = across("hi", lambda p: p.in_limit_share(LATENCY_LIMIT_MS))
    closed_per_s = sizes.live_sat_bids / across("sat", lambda p: p.wall_s * p.scale)
    e2e = {
        "peak_rss_mb": proc["peak_rss_mb"],
        "bid_p50_ms_lo": across("lo", lambda p: p.latency(50)),
        "bid_p50_ms_hi": stats.percentile(
            [p50 for phase in phases["hi"] for p50 in phase.block_p50s(HI_BLOCK)], 25
        ),
        "bid_in_limit_share_hi": hi_share,
        "settle_overhead_p50_ms": stats.median(settle),
        "closed_bids_per_s": closed_per_s,
    }
    driver = {
        "peak_rss_mb": proc["peak_rss_mb"],
        "tasks_per_s": closed_per_s,
        # bids at 400/s answered in limit, per second of the phase as scheduled
        "phase2_tasks_per_s": across(
            "hi",
            lambda p: p.in_limit_share(LATENCY_LIMIT_MS) * len(p.shots) * p.dilation / p.wall_s,
        ),
        # the 40/s p50, the steadier of the two (see HI_BLOCK)
        "task_p50_ms": e2e["bid_p50_ms_lo"],
    }
    late = [s.late_ms for group in ("lo", "hi") for phase in phases[group] for s in phase.shots]
    ext = {
        "live.bid_p50_ms_lo": e2e["bid_p50_ms_lo"],
        "live.bid_p95_ms_lo": across("lo", lambda p: p.latency(95)),
        "live.bid_p50_ms_hi": e2e["bid_p50_ms_hi"],
        "live.bid_p95_ms_hi": across("hi", lambda p: p.latency(95)),
        "live.bid_p99_ms_hi": across("hi", lambda p: p.latency(99)),
        "live.bid_in_limit_share_hi": hi_share,
        "live.gen_late_p99_ms": stats.percentile(late, 99),
        "live.accept_share_lo": across("lo", lambda p: p.accept_share),
        "live.accept_share_hi": across("hi", lambda p: p.accept_share),
        "live.settle_overhead_p50_ms": e2e["settle_overhead_p50_ms"],
        "live.queue_wait_p50_ms": stats.median(queue_wait),
        "live.executor.run_overhead_p50_ms": stats.median(run_over),
        "live.cpu_ms_per_bid": 1e3 * proc["cpu_s"] / attempted,
        "live.journal_bytes": float(os.path.getsize(server.journal)),
        "live.drain_s": drain_s,
        "audit.audit_s": audit_s,
    }
    return LiveResult(
        e2e, driver, ext, attempted, failed, breaches, server.setup_s, hostspeed.pace(paces)
    )


# ----------------------------------------------------------------------
# The traced run: LiveService + start_http in this process
# ----------------------------------------------------------------------

class _Patch:
    """Swap attributes for traced wrappers and put them back afterwards."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _trace_service(tracer: Tracer, patch: _Patch, httpd: Any, service: Any, sink: Any) -> None:
    """Put the per-request layers of the live service inside spans."""

    def span(name: str) -> Callable[[Any], Any]:
        return lambda original: tracer.wrap(name, original)

    def journal(original: Any) -> Any:
        in_request = tracer.wrap("obs.flight.journal", original)
        background = tracer.wrap(BACKGROUND + "journal", original)

        def write_line(text: str) -> None:
            # settlements journal from the dispatch loop, outside any request
            (in_request if tracer.depth else background)(text)

        return write_line

    def render(original: Any) -> Any:
        bid = tracer.wrap("live.api.render", original)
        probe = tracer.wrap(PROBE + "render", original)

        def response(status: int, payload: object, headers: Any = None) -> bytes:
            return (probe if payload == {"ok": True} else bid)(status, payload, headers)

        return response

    patch.swap(httpd, "parse_bid_body", span("live.api.parse"))
    patch.swap(httpd, "_response", render)
    patch.swap(service, "handle_bids", span("live.service.handle"))
    patch.swap(service.broker, "negotiate", span("market.negotiate"))
    for site in service.sites:
        patch.swap(site, "quote", span("live.site.quote"))
        patch.swap(site, "award", span("live.site.award"))
    patch.swap(sink, "write_line", journal)


#: span-name prefix of work the server does outside any request
BACKGROUND = "live.background."
#: span-name prefix of the /healthz probes that calibrate plain transport
PROBE = "live.probe."
#: one /healthz probe after every this many bids, so probes meet the same
#: forks and settlements on the loop that the bids do
PROBE_EVERY = 5


@dataclass
class _InProcess:
    """Round-trip totals of one in-process session (seconds)."""

    bid_s: float
    probe_s: float
    probes: int
    layers: dict[str, LayerTime]

    def spans_s(self, probe: bool) -> float:
        """Self time of the request spans of the bids, or of the probes."""
        return sum(
            layer.self_s
            for name, layer in self.layers.items()
            if not name.startswith(BACKGROUND) and name.startswith(PROBE) == probe
        )


def _inprocess_session(
    bodies: Sequence[bytes], workdir: str, tracer: Optional[Tracer]
) -> _InProcess:
    """Host the service in this process and send *bodies* over one connection."""
    from repro.live import httpd
    from repro.live.config import LiveConfig, LiveSiteSpec
    from repro.live.service import LiveService
    from repro.obs.flight import FlightRecorder, JournalSink

    patch = _Patch()
    journal = os.path.join(workdir, "inprocess.journal.jsonl")
    config = LiveConfig(
        rate=LIVE_CLOCK_RATE,
        sites=tuple(LiveSiteSpec(site_id=f"live-{i}", slots=SLOTS) for i in range(SITES)),
    )
    ready = threading.Event()
    state: dict[str, Any] = {}

    async def serve() -> None:
        flight = FlightRecorder(
            sink=JournalSink(journal, fsync="interval"), clock_domain="wall"
        )
        service = LiveService(config, flight=flight)
        if tracer is not None:
            _trace_service(tracer, patch, httpd, service, flight.sink)
        await service.start()
        server, port = await httpd.start_http(service, HOST, 0)
        state.update(port=port, stop=asyncio.Event(), loop=asyncio.get_running_loop())
        ready.set()
        await state["stop"].wait()
        await service.drain()
        server.close()
        await server.wait_closed()
        await service.stop()
        flight.close()
        state["errors"] = list(service.errors)

    def roundtrip(method: str, path: str, body: bytes = b"") -> float:
        started = _now()
        status, _payload = http_request(state["port"], method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status} in process")
        return _now() - started

    def drain(scale: float = 1.0) -> dict[str, LayerTime]:
        """Fold the spans on the loop thread, where no span can be open."""
        if tracer is None:
            return {}
        done: Future = Future()

        def fold() -> None:
            layers: dict[str, LayerTime] = {}
            tracer.drain_into(layers, scale)
            done.set_result(layers)

        state["loop"].call_soon_threadsafe(fold)
        return done.result(timeout=30)

    thread = threading.Thread(target=lambda: asyncio.run(serve()))
    thread.start()
    try:
        if not ready.wait(timeout=30):
            raise RuntimeError("the in-process live service never came up")
        for body in bodies[:20]:  # warm the code paths
            roundtrip("POST", "/bids", body)
            roundtrip("GET", "/healthz")
        drain()
        before = hostspeed.sample()
        bid_s = probe_s = 0.0
        probes = 0
        for index, body in enumerate(bodies):
            bid_s += roundtrip("POST", "/bids", body)
            if index % PROBE_EVERY == PROBE_EVERY - 1:
                probe_s += roundtrip("GET", "/healthz")
                probes += 1
        scale = hostspeed.corrected(1.0, before, hostspeed.sample())
        layers = drain(scale)
    finally:
        if ready.is_set():
            state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=90)
        patch.restore()
    if thread.is_alive():
        raise RuntimeError("the in-process live service did not stop")
    if state.get("errors"):
        raise RuntimeError(f"in-process live service errors: {state['errors'][:3]}")
    return _InProcess(bid_s * scale, probe_s * scale, probes, layers)


def run_live_traced(sizes: Sizes, seed: int, workdir: str) -> dict[str, float]:
    """Per-request layer budget of ``POST /bids`` over one connection.

    Two in-process sessions on the same bids: untraced, then traced.
    Transport is what the spans leave of a round trip; the residual is
    how far that is from plain transport as calibrated on interleaved
    ``/healthz`` requests, which do no market work.
    """
    bodies = BidStream(sizes.live_traced_bids, seed).bodies
    bids = len(bodies)
    plain = _inprocess_session(bodies, workdir, None)
    traced = _inprocess_session(bodies, workdir, Tracer())

    def per_bid(name: str) -> float:
        return 1e6 * traced.layers.get(name, LayerTime()).self_s / bids

    transport = (traced.bid_s - traced.spans_s(probe=False)) / bids
    probe_transport = (traced.probe_s - traced.spans_s(probe=True)) / traced.probes
    return {
        "live.httpd.transport_us": 1e6 * transport,
        "live.api.parse_us": per_bid("live.api.parse"),
        "live.service.handle_us": per_bid("live.service.handle"),
        "market.negotiate_us": per_bid("market.negotiate"),
        "live.site.quote_us": per_bid("live.site.quote"),
        "live.site.award_us": per_bid("live.site.award"),
        "obs.flight.journal_us": per_bid("obs.flight.journal"),
        "live.api.render_us": per_bid("live.api.render"),
        "budget.residual_share": abs(transport - probe_transport) / (traced.bid_s / bids),
        "trace.overhead_ratio": traced.bid_s / plain.bid_s,
    }
