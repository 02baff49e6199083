"""The market flight recorder: every economic decision, on the record.

A :class:`FlightRecorder` captures the market's decision chain — bid
arrival, per-site quote (admission verdict, slack, price), award,
settlement — as schema-versioned, append-only JSONL.  The same record
schema serves both clock domains: simulation runs tag records with the
sim clock, the live service with its wall clock (``Recording.clock``
says which).

Like every observability layer it is off by default and bit-inert: the
recorder never reads any clock itself (callers pass ``t`` from *their*
``clock.now``, a discipline the OBS002 source guard checks),
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

import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Iterable, NamedTuple, Optional

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
    # written while circuit breakers gated negotiation; no reader
    # indexes it, and it leaves the schema at the next schema bump
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


# ----------------------------------------------------------------------
# The hot record kinds' own lines
# ----------------------------------------------------------------------
#
# ``bid``, ``quote``, ``award`` and ``settlement`` are nearly every record
# a market writes.  On a recorder that streams, their emitters spell the
# JSON line straight from the objects' attributes — one ``%``-format, no
# row dict, no encoder walk — in the encoder's own spelling: a float is
# ``float.__repr__``, an int its ``repr``, a string
# ``encode_basestring_ascii``, ``None`` is ``null`` and a bool
# ``true``/``false``.  A guard admits only exact ``float``/``int``/``str``/
# ``None`` values and finite floats; anything else (a sentinel, an
# ``np.float64``, an int in a float field) makes the spelling function
# return None, and the record goes through ``record()`` and
# ``_encode_row`` instead, so the bytes never depend on which path wrote
# them (``tests/property/test_journal_lines.py``).

_isfinite = math.isfinite


class _Shape(NamedTuple):
    """One hot record kind: its keys in line order, written once.

    ``line`` is the ``%`` format of the fast line and ``keys`` name the
    fallback row's fields, both built from the same ``(key, conversion)``
    pairs; ``spell(seq, t, values)`` is the line of *values* (in key
    order), or None when the guard refuses one of them.
    """

    kind: str
    keys: tuple[str, ...]
    line: str
    spell: Callable[[int, float, tuple], Optional[str]]


def _shape(
    kind: str,
    spell: Callable[[int, float, tuple], Optional[str]],
    *fields: tuple[str, str],
) -> _Shape:
    """*kind*'s shape from ``(key, conversion)`` pairs in line order.

    ``%r`` takes a value the guard holds to an exact finite float or an
    exact int (``repr`` is the encoder's spelling of both); ``%s`` takes
    text the spelling function made (a string, a null, a bool).  The line
    opens as every row does: ``seq``, ``kind``, ``t``.
    """
    spelled = "".join(f', "{key}": {conversion}' for key, conversion in fields)
    line = '{"seq": %d, "kind": "' + kind + '", "t": %r' + spelled + "}"
    return _Shape(kind, tuple(key for key, _ in fields), line, spell)


def _text_or_null(value: object) -> Optional[str]:
    """An optional string field's JSON; None when the guard refuses it."""
    if value is None:
        return "null"
    return _json_string(value) if type(value) is str else None


def _float_or_null(value: object) -> Optional[str]:
    """An optional float field's JSON; None when the guard refuses it."""
    if value is None:
        return "null"
    return repr(value) if type(value) is float and _isfinite(value) else None


def _bid_line(seq: int, t: float, values: tuple) -> Optional[str]:
    bid_id, client_id, runtime, value, decay, bound, demand, released_at = values
    if not (
        type(t) is type(runtime) is type(value) is type(decay) is float
        and _isfinite(t + runtime + value + decay)
        and type(bid_id) is type(demand) is int
    ):
        return None
    client_id = _text_or_null(client_id)
    bound = _float_or_null(bound)
    released_at = _float_or_null(released_at)
    if client_id is None or bound is None or released_at is None:
        return None
    return _BID.line % (
        seq, t, bid_id, client_id, runtime, value, decay, bound, demand, released_at
    )


def _quote_line(seq: int, t: float, values: tuple) -> Optional[str]:
    site_id, bid_id, verdict, slack, completion, yield_ = values[:6]
    if not (
        type(t) is type(slack) is type(completion) is type(yield_) is float
        and _isfinite(t + slack + completion + yield_)
        and type(bid_id) is int
        and type(site_id) is str
    ):
        return None
    if verdict == "declined":
        return _DECLINED.line % (
            seq, t, _json_string(site_id), bid_id, '"declined"', slack, completion, yield_
        )
    price = values[6]
    if not (type(price) is float and _isfinite(price)):
        return None
    return _ISSUED.line % (
        seq, t, _json_string(site_id), bid_id, '"issued"', slack, completion, yield_,
        price, "null",
    )


def _award_line(seq: int, t: float, values: tuple) -> Optional[str]:
    bid_id, site_id, contract_id, agreed_price, promised, task_tid = values
    if not (
        type(t) is type(agreed_price) is type(promised) is float
        and _isfinite(t + agreed_price + promised)
        and type(bid_id) is type(contract_id) is int
        and type(site_id) is str
    ):
        return None
    if task_tid is None:
        task_tid = "null"
    elif type(task_tid) is int:
        task_tid = repr(task_tid)
    else:
        return None
    return _AWARD.line % (
        seq, t, bid_id, _json_string(site_id), contract_id, agreed_price, promised, task_tid
    )


def _settlement_line(seq: int, t: float, values: tuple) -> Optional[str]:
    (contract_id, bid_id, site_id, outcome, price, agreed_price, completion,
     on_time, runtime, value) = values
    if not (
        type(t) is type(price) is type(agreed_price) is type(runtime) is type(value)
        is float
        and _isfinite(t + price + agreed_price + runtime + value)
        and type(contract_id) is type(bid_id) is int
        and type(site_id) is type(outcome) is str
        and (on_time is True or on_time is False)
    ):
        return None
    completion = _float_or_null(completion)
    if completion is None:
        return None
    return _SETTLEMENT.line % (
        seq, t, contract_id, bid_id, _json_string(site_id), _json_string(outcome),
        price, agreed_price, completion, "true" if on_time else "false", runtime, value,
    )


_BID = _shape(
    "bid", _bid_line,
    ("bid_id", "%r"), ("client_id", "%s"), ("runtime", "%r"), ("value", "%r"),
    ("decay", "%r"), ("bound", "%s"), ("demand", "%r"), ("released_at", "%s"),
)
_QUOTE_FIELDS = (
    ("site_id", "%s"), ("bid_id", "%r"), ("verdict", "%s"), ("slack", "%r"),
    ("expected_completion", "%r"), ("expected_yield", "%r"),
)
_DECLINED = _shape("quote", _quote_line, *_QUOTE_FIELDS)
# an issued quote's expires_at is always null (quotes carry no TTL); the
# key leaves with the schema bump of ROADMAP item 4(a)
_ISSUED = _shape(
    "quote", _quote_line, *_QUOTE_FIELDS, ("price", "%r"), ("expires_at", "%s")
)
_AWARD = _shape(
    "award", _award_line,
    ("bid_id", "%r"), ("site_id", "%s"), ("contract_id", "%r"),
    ("agreed_price", "%r"), ("promised_completion", "%r"), ("task_tid", "%s"),
)
_SETTLEMENT = _shape(
    "settlement", _settlement_line,
    ("contract_id", "%r"), ("bid_id", "%r"), ("site_id", "%s"), ("outcome", "%s"),
    ("price", "%r"), ("agreed_price", "%r"), ("completion", "%s"), ("on_time", "%s"),
    ("runtime", "%r"), ("value", "%r"),
)


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
        Never ``fsync``.  Survives a process crash (the kernel holds the
        pages) but not a power cut; byte-compatible with the pre-journal
        recorder behaviour.

    Under every policy the file is unbuffered: each record reaches the
    kernel in one ``write(2)`` of line and newline (looped only if the
    kernel takes part of it) before :meth:`write_line` returns, so a
    process crash loses no record the caller was told is written.  The
    interval is counted in *records*, never seconds: this module is
    timestamp-passive (source guard OBS002) and may not read a clock.

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
        self._file: Optional[io.FileIO] = open(
            path, "ab" if append else "wb", buffering=0
        )
        self.lines = 0
        self.syncs = 0
        #: records since the last sync, synchronous or submitted (the
        #: ``interval`` count)
        self._unsynced = 0
        #: whether anything was written since the last *synchronous*
        #: sync — an offloaded one may not have run yet, so ``close``
        #: syncs whenever this is set
        self._dirty = False
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
        syncs synchronously whenever anything was written since its last
        synchronous sync, so shutdown hands back a fully-synced file.
        This module stays asyncio-free — the policy of *where* the sync
        runs belongs to the caller.
        """
        self.offload = offload

    def write_line(self, text: str) -> None:
        """Append one line in one ``write(2)``; fsync per policy."""
        assert self._file is not None, "sink is closed"
        # one write: a crash cannot leave a complete record unterminated
        data = (text + "\n").encode()
        written = self._file.write(data)
        while written < len(data):  # the kernel took part: hand it the rest
            written += self._file.write(data[written:])
        self.lines += 1
        self._unsynced += 1
        self._dirty = True
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
        self._dirty = False

    def _sync_offloaded(self) -> None:
        """Submit the fsync elsewhere; counters advance at submission.

        The job syncs and then closes its own duplicate of the fd, so it
        stays valid however late the pool runs it — the sink's fd number
        may by then belong to another file.  ``close`` does not wait for
        it: it syncs synchronously itself.  An error from the job's
        ``fsync`` is raised into *offload* (the live service's executor
        future), which chose where the sync runs.
        """
        assert self._file is not None
        fd = os.dup(self._file.fileno())
        self.syncs += 1
        self._unsynced = 0

        def _do_sync() -> None:
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

        self.offload(_do_sync)  # type: ignore[misc]

    def close(self) -> None:
        """Final sync (unless ``off``) and close; idempotent."""
        if self._file is None:
            return
        if self.fsync != "off" and self._dirty:
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
    clock_domain:
        ``"sim"`` (simulated time) or ``"wall"`` (live service time) —
        a header-level tag; every record's ``t`` is in this domain.
    sink:
        When given, every record is streamed through this
        :class:`JournalSink` as one JSON line (the header line is written
        at once, unless the sink appends to a recovered journal) and
        nothing is kept in memory: the file is the record, and
        ``recording()`` reads it back.  ``JournalSink(path, fsync="off")``
        writes each line in the kernel without an fsync; the live service
        picks its own policy.  Without a sink records are buffered in
        :attr:`events`.

    The recorder is passive: it never reads a clock (callers pass
    ``t``) and never raises into the decision path.  On a recorder that
    streams, a ``bid``, ``quote``, ``award`` or ``settlement`` costs the
    spelling of its own line and one ``write(2)``: those emitters format
    the line straight from the objects' attributes, and only a value the
    guard refuses (a non-finite float, a NumPy scalar, an int in a float
    field) sends the record through :meth:`record` and the encoder.
    Every other kind, and every record of a memory-only recorder, is a
    row, built as :meth:`record` builds it.
    """

    def __init__(
        self, clock_domain: str = "sim", sink: Optional[JournalSink] = None
    ) -> None:
        if clock_domain not in ("sim", "wall"):
            raise ValueError(f"clock_domain must be 'sim' or 'wall', got {clock_domain!r}")
        self.clock_domain = clock_domain
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
        return self._store(kind, t, fields)

    def _store(self, kind: str, t: float, fields: Iterable) -> dict:
        """The row of *fields* (a mapping or ``(key, value)`` pairs), kept or written."""
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

    def _emit(self, shape: _Shape, t: float, values: tuple) -> None:
        """A hot kind's record: its own line on an open sink, else a row."""
        sink = self.sink
        if sink is None:
            self._store(shape.kind, t, zip(shape.keys, values))
            return
        if not sink.closed:
            line = shape.spell(self.seq + 1, t, values)
            if line is not None:
                self.seq += 1
                sink.write_line(line)
                return
        self.record(shape.kind, t, **dict(zip(shape.keys, values)))

    def close(self) -> None:
        """Close the file sink, with its final sync (idempotent)."""
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

    # The four hot kinds pass their values in their shape's key order.

    def bid(self, t: float, bid) -> None:
        """A client bid arrived for negotiation."""
        self._emit(_BID, t, (
            bid.bid_id, bid.client_id, bid.runtime, bid.value, bid.decay,
            bid.bound, bid.demand, bid.released_at,
        ))

    def quote(self, t: float, site_id: str, bid, decision, server_bid) -> None:
        """One site's answer: an issued quote or an admission decline."""
        if server_bid is None:
            self._emit(_DECLINED, t, (
                site_id, bid.bid_id, "declined", decision.slack,
                decision.expected_completion, decision.expected_yield,
            ))
            return
        self._emit(_ISSUED, t, (
            site_id, bid.bid_id, "issued", decision.slack,
            decision.expected_completion, decision.expected_yield,
            server_bid.expected_price, None,
        ))

    def award(self, t: float, bid, winner, contract) -> None:
        """The broker awarded *bid* to *winner*'s site; a contract formed."""
        self._emit(_AWARD, t, (
            bid.bid_id, winner.site_id, contract.contract_id,
            contract.agreed_price, contract.promised_completion, contract.task_tid,
        ))

    def settlement(self, t: float, contract, outcome: str) -> None:
        """A contract settled (exactly once): payment, penalty, or refund."""
        bid = contract.bid
        self._emit(_SETTLEMENT, t, (
            contract.contract_id, bid.bid_id, contract.site_id, outcome,
            contract.actual_price, contract.agreed_price, contract.actual_completion,
            contract.on_time, bid.runtime, bid.value,
        ))

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

#: Where a JSON value could run on past its own line: a line that does
#: not open with ``{`` (a blank one too), a ``{`` that does not open its
#: line, and any ``[``.  One inside a string counts as well; it only sends
#: its line to be decoded on its own.
_BARE_LINE = re.compile(r"\n[^{]")
_NESTED = (re.compile(r"\{(?<=[^\n]\{)"), re.compile(r"\["))

#: The line breaks ``str.splitlines`` honours that JSON lets a string hold
#: unescaped (every other one besides ``\n`` is no JSON anywhere).
_STRING_BREAKS = re.compile("[\x85\u2028\u2029]")

#: The fields whose values repeat across a journal: a journal read back
#: holds one string per kind, site, verdict, outcome, client and action.
_NAMES = ("kind", "site_id", "verdict", "outcome", "client_id", "action")


def read_recording(path: str) -> Recording:
    """Parse a JSONL flight recording written by :class:`FlightRecorder`.

    Raises :class:`ValueError` ("<path>:<line>: …") on a missing or
    garbled header, a schema the reader does not understand, or a record
    that is not a JSON object of a known kind carrying the fields
    :data:`RECORD_FIELDS` lists for it.  Only an undecodable final line
    (a crashed writer's torn record) is tolerated, and dropped.

    The records are :func:`_read_by_line`'s, which is the reference; a
    journal :func:`_read_at_once` cannot vouch for goes to it, and so
    does any record a check refuses, so that the error names its line.
    """
    recording = _read_at_once(path)
    return recording if recording is not None else _read_by_line(path)


def _read_at_once(path: str) -> Optional[Recording]:
    """The recording at *path* from one ``json.loads`` call, or None.

    The lines are decoded as one array, ``[line,\\n line,\\n …]``, so
    every record shares the decoder's one string per key, and the values
    of :data:`_NAMES` are shared after it.  The call reads each line as
    the per-line reader does only if no value spans two lines.  A string
    cannot: strict JSON refuses a raw newline in one.  An object cannot
    when its line opens with its ``{`` and holds no other ``{`` and no
    ``[``; every other line must decode on its own first.  Each line then
    holds at least one value, so a line holding two shows as a count one
    too high.  None when the call cannot vouch for the journal (a torn
    or unterminated final line, a blank or damaged one) or a record
    fails a check.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.count("\n")
    if (
        not text.endswith("\n")
        or (not text.isascii() and _STRING_BREAKS.search(text))
        or not _lines_stand_alone(text)
    ):
        return None
    # a sentinel may be in there ("inf", "-inf", "nan"); spelled with an
    # escape it is one the per-line reader leaves a string
    sentinels = 'inf"' in text or 'nan"' in text
    escaped = sentinels and "\\" in text
    # one copy of the text at a time beside the one being built; the
    # last newline stays, as whitespace before the closing bracket
    text = "[" + text
    text = text.replace("\n", ",\n", lines - 1)
    text += "]"
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError):
        return None
    del text
    if len(rows) != lines:
        return None
    schema, clock = _header(path, rows[0])
    del rows[0]
    names: dict[str, str] = {}
    for index, raw in enumerate(rows):
        if type(raw) is not dict:
            return None
        if sentinels and any(
            type(v) is str and k in _FLOAT_FIELDS and v in _SENTINELS
            for k, v in raw.items()
        ):
            if escaped:
                return None
            raw = rows[index] = _unsentinel(raw)
        if _malformed(raw) is not None:
            return None
        for name in _NAMES:
            value = raw.get(name)
            if type(value) is str:
                raw[name] = names.setdefault(value, value)
    return Recording(schema=schema, clock=clock, events=rows)


def _lines_stand_alone(text: str) -> bool:
    """Whether every line of *text* that could let a value run on decodes alone."""
    starts = {m.start() + 1 for m in _BARE_LINE.finditer(text)}
    if not text.startswith("{"):
        starts.add(0)
    for pattern in _NESTED:
        starts.update(text.rfind("\n", 0, m.start()) + 1 for m in pattern.finditer(text))
    for start in starts:
        try:
            json.loads(text[start:text.index("\n", start)])
        except (ValueError, RecursionError):
            return False
    return True


def _read_by_line(path: str) -> Recording:
    """:func:`read_recording` one line at a time: the reference and the error path."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty recording (no header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: unreadable header line: {exc}") from exc
    schema, clock = _header(path, header)
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
            raw = _unsentinel(raw)
        problem = _malformed(raw)
        if problem is not None:
            raise ValueError(f"{path}:{index}: {problem}")
        events.append(raw)
    return Recording(schema=schema, clock=clock, events=events)


def _unsentinel(raw: dict) -> dict:
    """*raw* with each float field the writer spelled as a sentinel undone."""
    return {
        k: _SENTINELS.get(v, v) if type(v) is str and k in _FLOAT_FIELDS else v
        for k, v in raw.items()
    }


def _header(path: str, header: object) -> tuple[int, str]:
    """The schema and clock of a decoded header line, which must be one."""
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
    return schema, clock


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
