"""The journal reader decodes in one call and reads as the per-line reference.

``read_recording`` decodes a journal in one ``json.loads`` call when that
call can vouch for every line on its own, and otherwise hands it to
``_read_by_line``, the reference and the error path.  Whatever the
journal, the two must agree: records equal (types included, a NaN equal
to a NaN), or the same ``ValueError`` text.  The journals are the ones
the hostile, mutated and sentinel suites build, line-level damage made
by hypothesis, and the lines that a naive join would misread: a value
running on across lines, a line holding two values, a string holding a
line break ``str.splitlines`` honours.
"""

import math
import os
import tempfile

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.flight import (
    FlightRecorder,
    JournalSink,
    _encode_row,
    _read_at_once,
    _read_by_line,
    read_recording,
)
from repro.tasks import TaskBid

from tests.property.test_mutated_journal import (
    JOURNAL,
    MARKET_JOURNAL,
    _damaged,
    _mutated,
    byte_damage,
    mutations,
)
from tests.test_audit import _HOSTILE, _hostile_journal


def _outcome(reader, path):
    """What *reader* makes of *path*, comparable across readers (NaN == NaN)."""
    try:
        recording = reader(path)
    except ValueError as exc:
        return "error", str(exc)
    return "records", recording.schema, recording.clock, repr(recording.events)


def _agree(path) -> str:
    """Both readers' outcome on *path* must be one; returns its kind."""
    outcome = _outcome(read_recording, path)
    assert outcome == _outcome(_read_by_line, path)
    return outcome[0]


def _agree_on(data: bytes) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "journal.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        return _agree(path)


def _sentinel_journal() -> bytes:
    """Names that look like sentinels, and floats spelled as them."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "names.jsonl")
        with FlightRecorder(sink=JournalSink(path, fsync="off")) as flight:
            for name in ("nan", "inf", "-inf"):
                bid = TaskBid(runtime=5.0, value=10.0, decay=1.0, client_id=name)
                flight.bid(0.0, bid)
                flight.site_open(0.0, name, 4, "firstprice", threshold=-math.inf)
                flight.shed(1.0, 3, 2, 0.5, client_id=name)
                flight.intent(1.0, "response", idempotency_key=name, response={"ok": True})
                for slack in (math.inf, -math.inf, math.nan):
                    flight.record(
                        "quote", 2.0, site_id=name, bid_id=bid.bid_id,
                        verdict="declined", slack=slack,
                    )
        with open(path, "rb") as handle:
            return handle.read()


SENTINEL_JOURNAL = _sentinel_journal()
BASES = {"market": MARKET_JOURNAL, "sentinels": SENTINEL_JOURNAL}


def test_the_one_call_reads_the_clean_journals():
    """The journals the writer makes are the ones the one call takes."""
    for data in BASES.values():
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "journal.jsonl")
            with open(path, "wb") as handle:
                handle.write(data)
            assert _read_at_once(path) is not None
            assert _agree(path) == "records"


def test_the_one_call_shares_the_names_of_a_journal():
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "journal.jsonl")
        with open(path, "wb") as handle:
            handle.write(MARKET_JOURNAL)
        events = read_recording(path).events
    quotes = [e for e in events if e["kind"] == "quote"]
    assert len({id(e["kind"]) for e in quotes}) == 1
    assert len({id(e["site_id"]) for e in quotes}) == len({e["site_id"] for e in quotes})
    # the decoder's key strings, not one copy per record
    assert len({id(key) for e in quotes for key in e if key == "verdict"}) == 1


@settings(max_examples=150, deadline=None)
@given(damage=byte_damage)
def test_damaged_bytes_read_alike(damage):
    _agree_on(_damaged(MARKET_JOURNAL, *damage))


@settings(max_examples=40, deadline=None)
@given(damage=mutations)
def test_damaged_records_read_alike(damage):
    header = {"kind": "header", "schema": JOURNAL.schema, "clock": JOURNAL.clock}
    rows = [header, *_mutated(damage).events]
    _agree_on("".join(_encode_row(row) + "\n" for row in rows).encode())


@pytest.mark.parametrize("case", sorted([*_HOSTILE, "garbled header"]))
def test_hostile_records_read_alike(tmp_path, case):
    assert _agree(_hostile_journal(tmp_path, case)) == "error"


#: (what, line, text): insert *text* as a line before *line*, join *line*
#: to the next with *text* between, split *line* after *text*-many
#: characters, or put *text* in place of a float field's value
line_damage = st.tuples(
    st.sampled_from(["insert", "join", "split", "value"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([
        "", "  ", "\t", ", ", " ", "[", "]", "{", "}", "5", "7,", '"x"', "null",
        "\u2028", "\x85", "\x0c", '"inf"', '"-inf"', '"nan"', '"in\\u0066"',
        '"na\\u006e"', "1e999", "[1,", '{"a": [', "]}", "2]",
    ]),
)


def _line_damaged(data: bytes, damages) -> bytes:
    lines = data.decode("utf-8").split("\n")
    for what, at, text in damages:
        index = at % len(lines)
        line = lines[index]
        if what == "insert":
            lines.insert(index, text)
        elif what == "join" and index + 1 < len(lines):
            lines[index:index + 2] = [line + text + lines[index + 1]]
        elif what == "split":
            cut = len(text) % (len(line) + 1)
            lines[index:index + 1] = [line[:cut], line[cut:]]
        elif what == "value" and ', "t": ' in line:
            head, _, tail = line.partition(', "t": ')
            rest = tail.partition(",")[2]
            lines[index] = head + ', "t": ' + text + ("," + rest if rest else "}")
    return "\n".join(lines).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), damages=st.lists(line_damage, min_size=1, max_size=3))
@example(base="market", damages=[("insert", 5, "")])  # a blank line
@example(base="market", damages=[("join", 5, ", ")])  # a line holding two values
@example(base="market", damages=[("join", 5, " ")])
@example(base="market", damages=[("split", 3, "x" * 40)])  # a record over two lines
@example(base="sentinels", damages=[("value", 2, '"in\\u0066"')])  # an escaped sentinel
@example(base="sentinels", damages=[("value", 2, '"nan"')])
@example(base="market", damages=[("insert", 3, "\u2028")])
def test_damaged_lines_read_alike(base, damages):
    _agree_on(_line_damaged(BASES[base], damages))


def _journal(*records: str, end: str = "\n") -> bytes:
    header = '{"kind": "header", "schema": 1, "clock": "sim"}'
    return ("\n".join([header, *records]) + end).encode("utf-8")


SHED = '{"seq": %d, "kind": "shed", "t": 0.0}'


@pytest.mark.parametrize(
    "data",
    [
        # a torn tail, with and without a line end
        _journal(SHED % 1, '{"seq": 2, "kind": "sh', end=""),
        _journal(SHED % 1, '{"seq": 2, "kind": "sh'),
        _journal(SHED % 1, end=""),
        # two values on one line, and one value over two lines, each
        # hiding the other from a count of values
        _journal(SHED % 1 + ", " + SHED % 2, '{"seq": 3, "kind": "shed",', '"t": 0.0}'),
        _journal(
            '{"seq": 1, "kind": "shed", "t": 0.0, "x": [{"a": 1}',
            '{"b": 2}]}', SHED % 3 + ", " + SHED % 4,
        ),
        _journal(
            '{"seq": 1, "kind": "shed", "t": 0.0, "x": [[', "]]}",
            SHED % 3 + ", " + SHED % 4,
        ),
        # a line break only str.splitlines honours, inside a string
        _journal('{"seq": 1, "kind": "shed", "t": 0.0, "client_id": "a\u2028b"}'),
        _journal('{"seq": 1, "kind": "shed", "t": 0.0, "client_id": "a\x85b"}'),
        # an escaped sentinel stays a string; a plain one is a float
        _journal('{"seq": 1, "kind": "bid", "t": 0.0, "bid_id": 1, "runtime": 1.0, '
                 '"value": 1.0, "decay": 0.0, "bound": "in\\u0066"}'),
        _journal('{"seq": 1, "kind": "bid", "t": 0.0, "bid_id": 1, "runtime": 1.0, '
                 '"value": 1.0, "decay": 0.0, "bound": "inf", "client_id": "a\\"b"}'),
        _journal('{"seq": 1, "kind": "bid", "t": 0.0, "bid_id": 1, "runtime": 1.0, '
                 '"value": 1.0, "decay": 0.0, "bound": "inf"}',
                 '{"seq": 2, "kind": "bid", "t": 0.0, "bid_id": 2, "runtime": 1.0, '
                 '"value": 1.0, "decay": 0.0, "bound": "in\\u0066"}'),
        _journal('{"seq": 1, "kind": "quote", "t": 0.0, "site_id": "s", "bid_id": 1, '
                 '"verdict": "declined", "slack": "nan"}',
                 '{"seq": 2, "kind": "quote", "t": 0.0, "site_id": "s", "bid_id": 1, '
                 '"verdict": "declined", "slack": "na\\u006e"}'),
        # blank and whitespace lines, leading whitespace, a header alone
        _journal(SHED % 1, "", SHED % 2),
        _journal(SHED % 1, "   ", SHED % 2, ""),
        _journal("  " + SHED % 1),
        _journal(),
        b"",
        b"\n" + _journal(SHED % 1),
        # the header cases of the flight recorder's own tests
        b"not json\n" + _journal(SHED % 1),
        b'{"kind": "bid"}\n',
        b'{"kind": "header", "schema": 999, "clock": "sim"}\n',
        b'{"kind": "header", "schema": 1, "clock": "gps"}\n' + _journal(SHED % 1),
    ],
)
def test_lines_a_join_could_misread_read_alike(data):
    _agree_on(data)
