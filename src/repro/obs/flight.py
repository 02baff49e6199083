"""The market flight recorder: every economic decision, on the record.

A :class:`FlightRecorder` captures the market's decision chain — bid
arrival, per-site quote (admission verdict, slack, price), award,
settlement, breaker transition — as schema-versioned,
append-only JSONL.  The same record schema serves both clock domains:
simulation runs tag records with the sim clock, the live service with
its wall clock (``Recording.clock`` says which).

Like every observability layer it is off by default and bit-inert: the
recorder never reads any clock itself (callers pass ``t`` from *their*
``clock.now``, a discipline enforced statically by lint rule OBS002),
never touches sim state, and a ``flight=None`` market is byte-identical
to one that predates the recorder (pinned by the golden fig6 tests).

The JSONL layout is one header line followed by one object per event::

    {"kind": "header", "schema": 1, "clock": "sim"}
    {"seq": 1, "kind": "bid", "t": 0.0, "bid_id": 7, ...}
    {"seq": 2, "kind": "quote", "t": 0.0, "site_id": "site-0", ...}

Consumers: ``repro.audit`` (double-entry ledger checks, and the one
fold of a recording into its books), ``repro.replay`` (trace
reconstruction + A/B policy re-runs), ``repro.live.recovery`` (crash
recovery) and ``repro.market.signals.board_from_recording`` (price-board
rebuilds).  :func:`read_recording` hands them only records shaped as
:data:`RECORD_FIELDS` says.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import IO, Callable, Optional

#: Bump when record fields/semantics change incompatibly.
FLIGHT_SCHEMA = 1

_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))
_OPTIONAL_INT = (int, type(None))

#: The fields every record carries (the header is no record).
_EVERY_RECORD: dict[str, tuple[type, ...]] = {"seq": (int,), "t": _NUMBER}

#: The fields each record kind must also carry, with the JSON types each
#: may hold — only the fields the readers (audit, replay, crash recovery,
#: the price board) index.  A field that may be null may also be absent:
#: readers ``.get`` it.
RECORD_FIELDS: dict[str, dict[str, tuple[type, ...]]] = {
    "site": {
        "site_id": (str,),
        "capacity": (int,),
        "heuristic": (str,),
        "threshold": _OPTIONAL_NUMBER,
        "discount_rate": _OPTIONAL_NUMBER,
        "heuristic_params": (dict, type(None)),
    },
    "bid": {
        "bid_id": (int,),
        "runtime": _NUMBER,
        "value": _NUMBER,
        "decay": _NUMBER,
        "bound": _OPTIONAL_NUMBER,
        "released_at": _OPTIONAL_NUMBER,
        "client_id": (str, type(None)),
    },
    "quote": {"site_id": (str,), "bid_id": (int,), "verdict": (str,)},
    "award": {
        "bid_id": (int,),
        "site_id": (str,),
        "contract_id": (int,),
        "agreed_price": _NUMBER,
        "promised_completion": _NUMBER,
        "task_tid": _OPTIONAL_INT,
    },
    "settlement": {
        "contract_id": (int,),
        "bid_id": (int,),
        "site_id": (str,),
        "outcome": (str,),
        "price": _NUMBER,
        "agreed_price": _NUMBER,
        "completion": _OPTIONAL_NUMBER,
        "on_time": (bool,),
        "runtime": _NUMBER,
    },
    "breaker": {},
    "site_summary": {"site_id": (str,), "revenue": _NUMBER, "contracts": (int,)},
    # durability layer (live service write-ahead journal)
    "intent": {"bid_id": _OPTIONAL_INT, "pid": _OPTIONAL_INT},
    "recovery": {"contract_id": _OPTIONAL_INT},
    "shed": {},
    # written while quotes could expire; no reader indexes it, and it
    # leaves the schema with the expires_at column
    "quote_expired": {},
}

#: A field one value of another field makes required, per kind: an
#: issued quote has a price, a completed contract a completion time.
_REQUIRED_WHEN: dict[str, tuple[str, str, str, tuple[type, ...]]] = {
    "quote": ("verdict", "issued", "price", _NUMBER),
    "settlement": ("outcome", "completed", "completion", _NUMBER),
}

#: What the reader checks per kind: every field, the common ones first.
_CHECKS = {
    kind: tuple({**_EVERY_RECORD, **fields}.items())
    for kind, fields in RECORD_FIELDS.items()
}

#: Every record kind the schema knows (audited by tests).
RECORD_KINDS = ("header", *RECORD_FIELDS)

#: Settlement outcomes (the three ways a contract closes).
SETTLEMENT_OUTCOMES = ("completed", "breached", "abandoned")

#: Fsync disciplines a :class:`JournalSink` supports.
FSYNC_POLICIES = ("always", "interval", "off")

#: Records between fsyncs under the ``interval`` policy.  Counted in
#: records, not seconds: this module is timestamp-passive (OBS002) and
#: may not read a clock to decide when to sync.
FSYNC_INTERVAL_RECORDS = 32


def _trim_torn_tail(path: str) -> None:
    """Drop an unterminated final line (a crashed writer's torn record)."""
    with open(path, "rb+") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        content = handle.read()
        cut = content.rfind(b"\n")
        handle.truncate(cut + 1 if cut >= 0 else 0)


def _jsonable(value: object) -> object:
    """JSON has no infinities; map them to sentinels the reader undoes."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


#: Encodes a row as it stands and refuses the floats JSON cannot carry
#: (same separators and escaping as ``json.dumps``, so the same bytes).
_STRICT_ENCODER = json.JSONEncoder(allow_nan=False)


def _encode_row(row: dict) -> str:
    """One record as its JSON line (no newline)."""
    try:
        return _STRICT_ENCODER.encode(row)
    except ValueError:
        # some field is inf/-inf/nan: spell the top-level ones as the
        # sentinels the reader undoes
        return json.dumps({k: _jsonable(v) for k, v in row.items()})


#: The fields the typed emitters fill from floats — the only ones whose
#: value the writer can have spelled as a sentinel, so the only ones the
#: reader turns back.  Everything else a client can name itself
#: (``client_id``, ``site_id``, an idempotency key) stays the string it was.
_FLOAT_FIELDS = frozenset({
    "t", "threshold", "discount_rate", "runtime", "value", "decay", "bound",
    "released_at", "slack", "expected_completion", "expected_yield", "price",
    "expires_at", "agreed_price", "promised_completion", "completion",
    "retry_after_s", "revenue",
})
_SENTINELS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


@dataclass
class Recording:
    """A parsed flight recording: header fields plus the event list."""

    schema: int
    clock: str
    events: list[dict] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[dict]:
        """Events of one kind, in recording (seq) order."""
        return [e for e in self.events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"<Recording schema={self.schema} clock={self.clock!r} "
            f"events={len(self.events)}>"
        )


class JournalSink:
    """A durable line sink: the flight recorder's write-ahead journal.

    Wraps a JSONL file with an explicit fsync discipline so the live
    service can treat the recording as a crash-durable journal rather
    than best-effort telemetry:

    ``always``
        ``fsync`` after every record.  A record the service acted on
        survives a power cut; one write + one sync per event.
    ``interval``
        ``fsync`` every :data:`FSYNC_INTERVAL_RECORDS` records and at
        close.  Bounded data loss (the tail of one interval) at a
        fraction of the syscall cost — the journal default.
    ``off``
        Flush to the OS on every record, never ``fsync``.  Survives a
        process crash (the kernel holds the pages) but not a power cut;
        byte-compatible with the pre-journal recorder behaviour.

    The interval is counted in *records*, never seconds: this module is
    timestamp-passive (lint rule OBS002) and may not read a clock.

    ``append=True`` reopens an existing journal without truncating it —
    the crash-recovery path, where the post-recovery records stitch onto
    the pre-crash journal in one auditable file.  ``appending`` reports
    whether prior content was found (the caller skips the header then).
    """

    def __init__(
        self,
        path: str,
        fsync: str = "interval",
        append: bool = False,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = path
        self.fsync = fsync
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.appending = bool(
            append and os.path.exists(path) and os.path.getsize(path) > 0
        )
        if self.appending:
            # a crashed writer can leave a torn final line; appending
            # after it would weld the next record onto the fragment and
            # corrupt the stitched journal mid-file, so trim it first
            _trim_torn_tail(path)
            self.appending = os.path.getsize(path) > 0
        self._file: Optional[IO[str]] = open(
            path, "a" if append else "w", encoding="utf-8"
        )
        self.lines = 0
        self.syncs = 0
        self._unsynced = 0
        #: when set (see :meth:`set_offload`), interval-policy fsyncs are
        #: submitted through this callable instead of blocking the caller
        self.offload: Optional[Callable[[Callable[[], None]], object]] = None

    def set_offload(self, offload: Optional[Callable[[Callable[[], None]], object]]) -> None:
        """Route *interval*-policy fsyncs through *offload* (e.g. a thread pool).

        The live service installs ``loop.run_in_executor`` here so the
        periodic durability sync never stalls the event loop.  Only the
        ``interval`` policy is offloaded: ``always`` means "the record is
        on disk before the caller proceeds", and weakening that ordering
        would change what the operator asked for; ``close`` likewise
        stays synchronous so shutdown hands back a fully-synced file.
        This module stays asyncio-free — the policy of *where* the sync
        runs belongs to the caller.
        """
        self.offload = offload

    def write_line(self, text: str) -> None:
        """Append one line; flush always, fsync per policy."""
        assert self._file is not None, "sink is closed"
        # one write: a crash cannot leave a complete record unterminated
        self._file.write(text + "\n")
        self._file.flush()
        self.lines += 1
        self._unsynced += 1
        if self.fsync == "always":
            self._sync()
        elif self.fsync == "interval" and self._unsynced >= FSYNC_INTERVAL_RECORDS:
            if self.offload is not None:
                self._sync_offloaded()
            else:
                self._sync()

    def _sync(self) -> None:
        assert self._file is not None
        os.fsync(self._file.fileno())
        self.syncs += 1
        self._unsynced = 0

    def _sync_offloaded(self) -> None:
        """Submit the fsync elsewhere; counters advance at submission.

        The fd is captured by value: if the sink is closed before the
        pool runs the sync, ``close`` has already synced and closed that
        fd, and the stale-fd fsync degrades to a harmless ``OSError``.
        """
        assert self._file is not None
        fd = self._file.fileno()
        self.syncs += 1
        self._unsynced = 0

        def _do_sync() -> None:
            try:
                os.fsync(fd)
            except OSError:
                pass  # sink closed (and final-synced) before the pool ran

        self.offload(_do_sync)  # type: ignore[misc]

    def close(self) -> None:
        """Final sync (unless ``off``) and close; idempotent."""
        if self._file is None:
            return
        if self.fsync != "off" and self._unsynced:
            self._sync()
        self._file.close()
        self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None

    def __repr__(self) -> str:
        return (
            f"<JournalSink {self.path!r} fsync={self.fsync} "
            f"lines={self.lines} syncs={self.syncs}>"
        )


class FlightRecorder:
    """Append-only recorder of market decision events.

    Parameters
    ----------
    path:
        When given, every record is streamed to this file as one JSON
        line (the directory is created; the header line is written
        immediately) and nothing is kept in memory: the file is the
        record, and ``recording()`` reads it back.  Without a file (and
        without a *sink*) records are buffered in :attr:`events`.
    clock_domain:
        ``"sim"`` (simulated time) or ``"wall"`` (live service time) —
        a header-level tag; every record's ``t`` is in this domain.
    sink:
        A pre-built :class:`JournalSink` to stream through instead of
        *path* — the live service passes one to pick the fsync policy
        and to append to a recovered journal (no second header line is
        written onto an appended journal).

    The recorder is passive: it never reads a clock (callers pass
    ``t``), never raises into the decision path, and imposes only an
    append per event (``obs.flight.us_per_record`` in ``python -m bench
    run --traced``).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        clock_domain: str = "sim",
        sink: Optional[JournalSink] = None,
    ) -> None:
        if clock_domain not in ("sim", "wall"):
            raise ValueError(f"clock_domain must be 'sim' or 'wall', got {clock_domain!r}")
        if path is not None and sink is not None:
            raise ValueError("pass either path or sink, not both")
        self.clock_domain = clock_domain
        if sink is None and path is not None:
            # the pre-journal contract: flush per line, no fsync
            sink = JournalSink(path, fsync="off")
        self.sink = sink
        self.path = sink.path if sink is not None else None
        #: the memory-only recorder's buffer; a recorder with a sink
        #: keeps no second copy of what it streamed
        self.events: list[dict] = []
        self.seq = 0
        if sink is not None and not sink.appending:
            self._write_line(
                {"kind": "header", "schema": FLIGHT_SCHEMA, "clock": clock_domain}
            )

    # ------------------------------------------------------------------
    # Core
    # ------------------------------------------------------------------
    def record(self, kind: str, t: float, **fields: object) -> dict:
        """Append one event; returns the stored record."""
        self.seq += 1
        row: dict = {"seq": self.seq, "kind": kind, "t": float(t)}
        row.update(fields)
        if self.sink is None:
            self.events.append(row)
        elif not self.sink.closed:
            self._write_line(row)
        return row

    def _write_line(self, row: dict) -> None:
        assert self.sink is not None
        self.sink.write_line(_encode_row(row))

    def close(self) -> None:
        """Flush and close the file sink (idempotent)."""
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def recording(self) -> Recording:
        """Everything recorded so far: the buffer, or the journal read back."""
        if self.sink is not None:
            return read_recording(self.sink.path)
        return Recording(
            schema=FLIGHT_SCHEMA, clock=self.clock_domain, events=list(self.events)
        )

    # ------------------------------------------------------------------
    # Typed emitters (callers pass t from their own clock.now)
    # ------------------------------------------------------------------
    def site_open(
        self,
        t: float,
        site_id: str,
        capacity: int,
        heuristic: str,
        threshold: Optional[float] = None,
        discount_rate: Optional[float] = None,
        heuristic_params: Optional[dict] = None,
    ) -> None:
        """A site joined the recorded market (capacity + policy knobs)."""
        self.record(
            "site",
            t,
            site_id=site_id,
            capacity=int(capacity),
            heuristic=heuristic,
            threshold=threshold,
            discount_rate=discount_rate,
            heuristic_params=heuristic_params,
        )

    def bid(self, t: float, bid) -> None:
        """A client bid arrived for negotiation."""
        self.record(
            "bid",
            t,
            bid_id=bid.bid_id,
            client_id=bid.client_id,
            runtime=bid.runtime,
            value=bid.value,
            decay=bid.decay,
            bound=bid.bound,
            demand=bid.demand,
            released_at=bid.released_at,
        )

    def quote(self, t: float, site_id: str, bid, decision, server_bid) -> None:
        """One site's answer: an issued quote or an admission decline."""
        row: dict = {
            "site_id": site_id,
            "bid_id": bid.bid_id,
            "verdict": "issued" if server_bid is not None else "declined",
            "slack": decision.slack,
            "expected_completion": decision.expected_completion,
            "expected_yield": decision.expected_yield,
        }
        if server_bid is not None:
            row["price"] = server_bid.expected_price
            # always null (quotes carry no TTL); the key leaves with the
            # schema bump of ROADMAP item 4(a)
            row["expires_at"] = None
        self.record("quote", t, **row)

    def award(self, t: float, bid, winner, contract) -> None:
        """The broker awarded *bid* to *winner*'s site; a contract formed."""
        self.record(
            "award",
            t,
            bid_id=bid.bid_id,
            site_id=winner.site_id,
            contract_id=contract.contract_id,
            agreed_price=contract.agreed_price,
            promised_completion=contract.promised_completion,
            task_tid=contract.task_tid,
        )

    def settlement(self, t: float, contract, outcome: str) -> None:
        """A contract settled (exactly once): payment, penalty, or refund."""
        self.record(
            "settlement",
            t,
            contract_id=contract.contract_id,
            bid_id=contract.bid.bid_id,
            site_id=contract.site_id,
            outcome=outcome,
            price=contract.actual_price,
            agreed_price=contract.agreed_price,
            completion=contract.actual_completion,
            on_time=contract.on_time,
            runtime=contract.bid.runtime,
            value=contract.bid.value,
        )

    def breaker(self, t: float, site_id: str, old: str, new: str) -> None:
        """A resilience circuit breaker changed state."""
        self.record("breaker", t, site_id=site_id, old=old, new=new)

    def intent(self, t: float, action: str, **fields: object) -> None:
        """A durability intent, journaled *before* the service acts.

        The live service's write-ahead discipline: ``accept`` before a
        bid is negotiated, ``response`` (with the idempotency key and
        the exact response document) before the reply leaves the
        socket, ``spawn`` (with the child PID) as a subprocess starts.
        Recovery replays these to rebuild the dedup table and to find
        orphaned children.
        """
        self.record("intent", t, action=action, **fields)

    def recovery(self, t: float, action: str, **fields: object) -> None:
        """A crash-recovery step: ``begin``, ``kill``, ``resettle``, ``resume``."""
        self.record("recovery", t, action=action, **fields)

    def shed(
        self,
        t: float,
        queued: int,
        watermark: int,
        retry_after_s: float,
        client_id: Optional[str] = None,
    ) -> None:
        """Intake refused a bid at the queue-depth watermark (HTTP 429)."""
        self.record(
            "shed",
            t,
            queued=int(queued),
            watermark=int(watermark),
            retry_after_s=float(retry_after_s),
            client_id=client_id,
        )

    def site_summary(
        self,
        t: float,
        site_id: str,
        revenue: float,
        contracts: int,
        quotes_issued: int,
        quotes_declined: int,
    ) -> None:
        """A site's closing books — the audit's reconciliation anchor."""
        self.record(
            "site_summary",
            t,
            site_id=site_id,
            revenue=float(revenue),
            contracts=int(contracts),
            quotes_issued=int(quotes_issued),
            quotes_declined=int(quotes_declined),
        )

    def __repr__(self) -> str:
        sink = self.path if self.path is not None else "memory"
        return f"<FlightRecorder {self.clock_domain} events={self.seq} sink={sink}>"


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------

def read_recording(path: str) -> Recording:
    """Parse a JSONL flight recording written by :class:`FlightRecorder`.

    Raises :class:`ValueError` ("<path>:<line>: …") on a missing or
    garbled header, a schema the reader does not understand, or a record
    that is not a JSON object of a known kind carrying the fields
    :data:`RECORD_FIELDS` lists for it.  Only an undecodable final line
    (a crashed writer's torn record) is tolerated, and dropped.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty recording (no header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: unreadable header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValueError(f"{path}: first line is not a flight-recorder header")
    schema = header.get("schema")
    if schema != FLIGHT_SCHEMA:
        raise ValueError(
            f"{path}: recording schema {schema!r} != supported {FLIGHT_SCHEMA}"
        )
    clock = header.get("clock")
    if clock not in ("sim", "wall"):
        raise ValueError(f"{path}: bad clock domain {clock!r}")
    events: list[dict] = []
    for index, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except (ValueError, RecursionError):
            if index == len(lines):
                break  # torn final line from an interrupted writer
            raise ValueError(f"{path}:{index}: unreadable record") from None
        if type(raw) is not dict:
            raise ValueError(f"{path}:{index}: record is not a JSON object")
        if 'inf"' in line or 'nan"' in line:
            # a sentinel may be in there ("inf", "-inf", "nan")
            raw = {
                k: _SENTINELS.get(v, v) if type(v) is str and k in _FLOAT_FIELDS else v
                for k, v in raw.items()
            }
        problem = _malformed(raw)
        if problem is not None:
            raise ValueError(f"{path}:{index}: {problem}")
        events.append(raw)
    return Recording(schema=schema, clock=clock, events=events)


def _malformed(event: dict) -> Optional[str]:
    """What keeps *event* from being a record the readers can index."""
    kind = event.get("kind")
    if kind is None:
        return "record has no kind"
    checks = _CHECKS.get(kind) if type(kind) is str else None
    if checks is None:
        return f"unknown record kind {kind!r}"
    for name, types in checks:
        if type(event.get(name)) not in types:
            return f"{kind} record has no valid {name!r}: {event.get(name)!r}"
    required = _REQUIRED_WHEN.get(kind)
    if required is not None:
        key, value, name, types = required
        if event[key] == value and type(event.get(name)) not in types:
            return f"{value} {kind} record has no valid {name!r}: {event.get(name)!r}"
    return None
