"""``repro serve`` — run the market as a real service.

Boots a :class:`~repro.live.service.LiveService` plus the HTTP front
end on one asyncio loop, prints the bound address, and runs until
SIGTERM/SIGINT.  Shutdown is a graceful drain: new bids are refused
(503), in-flight subprocesses finish (bounded by ``--drain-grace``),
every contract settles, then the telemetry artifacts are written and a
final settlement summary is printed.

Try it::

    repro serve --port 8080 --rate 60 &
    curl -s localhost:8080/bids -d '{"runtime": 60, "value": 10, "decay": 0.1}'
    curl -s localhost:8080/status
    kill -TERM %1      # drains, settles, exits 0
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro.errors import LiveServiceError, ReproError
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.httpd import start_http
from repro.live.service import LiveService


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro serve`` flag surface on *parser*."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0 = pick an ephemeral port and print it)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=60.0,
        metavar="UNITS_PER_S",
        help="market time units per wall second (default %(default)s: one "
        "wall second is one simulated minute)",
    )
    parser.add_argument(
        "--sites", type=int, default=1, metavar="N", help="number of seller sites"
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=2,
        metavar="N",
        help="max concurrently running subprocesses per site",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=180.0,
        help="slack admission threshold in time units (default %(default)s, "
        "the paper's Fig. 6 setting)",
    )
    parser.add_argument(
        "--timeout-factor",
        type=float,
        default=10.0,
        help="kill a subprocess past FACTOR x its declared runtime "
        "(0 disables; default %(default)s)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="wall seconds to wait for in-flight work at shutdown",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port number to PATH once listening "
        "(for scripts driving an ephemeral --port 0)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead journal: a flight recording (JSONL) of every "
        "market decision, intents first, under the --fsync policy; feed "
        "it to `repro audit` / `repro replay` afterwards, or to "
        "--recover after a crash",
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "interval", "off"),
        default="interval",
        help="journal fsync policy (default %(default)s: sync every few "
        "records and at close; off: a best-effort recording)",
    )
    parser.add_argument(
        "--recover",
        default=None,
        metavar="JOURNAL",
        help="replay a crashed service's journal before opening intake: "
        "kill orphaned subprocesses, abandon-settle open contracts, "
        "restore the idempotency table, then append to the same journal",
    )
    parser.add_argument(
        "--queue-watermark",
        type=int,
        default=0,
        metavar="N",
        help="refuse new bids with 429 once N tasks are queued across "
        "all sites (0 disables shedding)",
    )


def config_from_args(args: argparse.Namespace) -> LiveConfig:
    sites = tuple(
        LiveSiteSpec(site_id=f"live-{i}", slots=args.slots, threshold=args.threshold)
        for i in range(args.sites)
    )
    return LiveConfig(
        host=args.host,
        port=args.port,
        rate=args.rate,
        sites=sites,
        timeout_factor=args.timeout_factor,
        drain_grace=args.drain_grace,
        queue_watermark=args.queue_watermark,
    )


async def _serve(config: LiveConfig, args: argparse.Namespace) -> int:
    from repro.obs import (
        FlightRecorder,
        JournalSink,
        Observability,
        read_recording,
        write_artifacts,
    )

    # spans only when asked for: a server kept no trace would otherwise
    # hold every span of every bid it ever served until shutdown
    obs = Observability(spans=args.trace_out is not None)
    obs.begin_run("live")

    recover_path = args.recover
    journal_path = args.journal or recover_path
    plan = None
    if recover_path:
        from repro.live.recovery import plan_recovery

        try:
            plan = plan_recovery(read_recording(recover_path))
        except (OSError, ValueError, LiveServiceError) as exc:
            raise ReproError(f"cannot recover {recover_path}: {exc}") from None

    flight = None
    if journal_path:
        sink = JournalSink(
            journal_path,
            fsync=args.fsync,
            # recovery appends: post-crash records stitch onto the
            # pre-crash journal in one auditable file
            append=recover_path is not None and journal_path == recover_path,
        )
        # boot-time header write, before the server socket exists: no
        # client is waiting on this loop iteration yet
        flight = FlightRecorder(sink=sink, clock_domain="wall")  # repro: noqa ASY001  # boot-time header write; nothing is being served yet
        if plan is not None:
            flight.seq = plan.next_seq

    clock = None
    if plan is not None:
        from repro.live.clock import WallClock

        # resume market time from the last journaled instant so
        # pre-crash contracts can settle (never before their signing)
        clock = WallClock(config.rate, start=plan.resume_at)

    # site_open journal records during construction — still boot time,
    # before start_http binds the listening socket
    service = LiveService(config, obs=obs, clock=clock, flight=flight)  # repro: noqa ASY001  # boot-time site_open records; server not listening yet
    if plan is not None:
        from repro.live.recovery import apply_recovery

        resettled = apply_recovery(service, plan, now=service.clock.now)
        print(
            f"recovered {recover_path}: {resettled} contract(s) re-settled, "
            f"{len(plan.orphans)} orphan(s) addressed, "
            f"{len(plan.responses)} idempotent response(s) restored"
        )
        sys.stdout.flush()
    await service.start()
    server, port = await start_http(service, config.host, config.port)
    print(f"repro.live listening on http://{config.host}:{port} "
          f"(rate {config.rate:g} units/s, {len(config.sites)} site(s) "
          f"x {config.sites[0].slots} slot(s))")
    sys.stdout.flush()
    if args.port_file:
        # readers take "the file exists" to mean "the port is in it":
        # write under another name and rename into place
        partial = f"{args.port_file}.tmp"
        with open(partial, "w") as handle:
            handle.write(f"{port}\n")
        os.replace(partial, args.port_file)

    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, shutdown.set)
    await shutdown.wait()

    # graceful drain: refuse new bids (503), keep answering status reads
    # while in-flight work completes, then settle everything and stop
    print("drain: finishing in-flight work "
          f"(grace {config.drain_grace:g}s)")
    sys.stdout.flush()
    await service.drain()
    server.close()
    await server.wait_closed()
    await service.stop()
    obs.end_run(service.clock.now)
    if flight is not None:
        # shutdown-time final sync: the HTTP server is closed and the
        # service drained — the loop has nothing left to serve
        flight.close()  # repro: noqa ASY001  # final sync after drain; no clients left to stall
        print(f"wrote {journal_path} ({flight.seq} flight records)")
    for line in write_artifacts(obs, args.trace_out, args.metrics_out):
        print(line)

    # the totals the closing site_summary records carry, recovered
    # pre-crash books included
    contracts = sum(site.contracts_signed for site in service.sites)
    revenue = sum(site.revenue for site in service.sites)
    print(
        f"drained: {service.broker.negotiations} negotiation(s), "
        f"{contracts} contract(s), revenue {revenue:.2f}"
    )
    return 1 if service.errors else 0


def run_serve(args: argparse.Namespace) -> int:
    """Entry point for the ``repro serve`` subcommand."""
    config = config_from_args(args)
    return asyncio.run(_serve(config, args))
