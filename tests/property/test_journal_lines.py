"""The hot kinds' own lines are the encoder's lines, byte for byte.

On a recorder that streams to a journal, ``bid``, ``quote`` (issued and
declined), ``award`` and ``settlement`` spell their JSON line straight
from the objects' attributes; every value their guard refuses sends the
record through ``record()`` and ``_encode_row`` instead.  The property:
whatever the values — finite floats, ``±0.0``, subnormals, ``1e22``,
``±inf``, ``nan``, ``np.float64``, ints in float fields, ``None``,
bools, strings with quotes, backslashes, ``%``, control characters,
non-ASCII and U+2028 — each journal line equals ``_encode_row`` of the
row a memory-only recorder keeps for the same call, and ``seq`` runs on
unbroken across fast and fallback records.
"""

from __future__ import annotations

import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flight import FlightRecorder, JournalSink, _encode_row

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # ±0.0 and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e22, 1e16, 0.1]),
)
texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", "%s", "%", "\x00\x1f\x7f", "café", "\u2028\u2029", "nan", "inf"]),
)
ints = st.integers(min_value=-(10**20), max_value=10**20)
#: anything a field might hold that its plain type is not
odd = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None, True, False]),
    st.floats().map(np.float64),
    ints,
    finite,
    texts,
)
#: ``t`` always goes through ``float()``: only what that takes
odd_t = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), True]),
    st.floats().map(np.float64),
    ints,
)

#: each emitter's fields: what a market writes there (a plain value)
FLOAT, OPTIONAL_FLOAT = finite, st.one_of(st.none(), finite)
TEXT, OPTIONAL_TEXT = texts, st.one_of(st.none(), texts)
FIELDS = {
    "bid": {
        "t": FLOAT, "bid_id": ints, "client_id": OPTIONAL_TEXT, "runtime": FLOAT,
        "value": FLOAT, "decay": FLOAT, "bound": OPTIONAL_FLOAT, "demand": ints,
        "released_at": OPTIONAL_FLOAT,
    },
    "quote": {
        "t": FLOAT, "site_id": TEXT, "bid_id": ints, "slack": FLOAT,
        "expected_completion": FLOAT, "expected_yield": FLOAT,
        "price": st.one_of(st.none(), finite),  # None: a declined quote
    },
    "award": {
        "t": FLOAT, "bid_id": ints, "site_id": TEXT, "contract_id": ints,
        "agreed_price": FLOAT, "promised_completion": FLOAT,
        "task_tid": st.one_of(st.none(), ints),
    },
    "settlement": {
        "t": FLOAT, "contract_id": ints, "bid_id": ints, "site_id": TEXT,
        "outcome": TEXT, "actual_price": FLOAT, "agreed_price": FLOAT,
        "actual_completion": OPTIONAL_FLOAT, "on_time": st.booleans(),
        "runtime": FLOAT, "value": FLOAT,
    },
}


def _call(emitter: str, v: dict) -> tuple:
    """The emitter call that writes the field values *v*."""
    ns = SimpleNamespace
    if emitter == "bid":
        bid = ns(**{k: v[k] for k in FIELDS["bid"] if k != "t"})
        return ("bid", v["t"], bid)
    bid = ns(bid_id=v["bid_id"])
    if emitter == "quote":
        decision = ns(
            slack=v["slack"], expected_completion=v["expected_completion"],
            expected_yield=v["expected_yield"],
        )
        # a quote is issued when its site answers with a price
        server_bid = None if v["price"] is None else ns(expected_price=v["price"])
        return ("quote", v["t"], v["site_id"], bid, decision, server_bid)
    if emitter == "award":
        contract = ns(
            contract_id=v["contract_id"], agreed_price=v["agreed_price"],
            promised_completion=v["promised_completion"], task_tid=v["task_tid"],
        )
        return ("award", v["t"], bid, ns(site_id=v["site_id"]), contract)
    bid.runtime, bid.value = v["runtime"], v["value"]
    contract = ns(
        contract_id=v["contract_id"], bid=bid, site_id=v["site_id"],
        actual_price=v["actual_price"], agreed_price=v["agreed_price"],
        actual_completion=v["actual_completion"], on_time=v["on_time"],
    )
    return ("settlement", v["t"], contract, v["outcome"])


@st.composite
def calls(draw, emitter):
    """One emitter call: plain values, with up to two fields made odd."""
    fields = FIELDS[emitter]
    v = {name: draw(plain) for name, plain in fields.items()}
    for name in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2)):
        v[name] = draw(odd_t if name == "t" else odd)
    return _call(emitter, v)


sessions = st.lists(
    st.one_of(*(calls(emitter) for emitter in FIELDS)), min_size=1, max_size=6
)


def _journal_lines(recorder_calls) -> tuple[list[str], list[dict]]:
    """Each call on a journaled recorder and on a memory-only one."""
    memory = FlightRecorder()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "j.jsonl")
        with FlightRecorder(sink=JournalSink(path, fsync="off")) as journaled:
            for emitter, *args in recorder_calls:
                getattr(journaled, emitter)(*args)
                getattr(memory, emitter)(*args)
        with open(path, "rb") as handle:
            lines = handle.read().decode("ascii").split("\n")
    assert lines[-1] == ""  # every record ends its line
    return lines[1:-1], memory.events


@settings(max_examples=400, deadline=None)
@given(sessions)
def test_every_line_is_the_encoders_line(recorder_calls):
    lines, rows = _journal_lines(recorder_calls)
    assert [row["seq"] for row in rows] == list(range(1, len(recorder_calls) + 1))
    assert lines == [_encode_row(row) for row in rows]


#: a market's values, one per field
PLAIN = {
    "bid": {
        "t": 12.5, "bid_id": 3, "client_id": "c-1", "runtime": 30.0, "value": 80.25,
        "decay": 0.05, "bound": 20.0, "demand": 1, "released_at": 12.25,
    },
    "quote": {
        "t": 12.5, "site_id": "site-0", "bid_id": 3, "slack": 55.5,
        "expected_completion": 42.5, "expected_yield": 79.0, "price": 78.5,
    },
    "award": {
        "t": 12.5, "bid_id": 3, "site_id": "site-0", "contract_id": 4,
        "agreed_price": 78.5, "promised_completion": 42.5, "task_tid": 9,
    },
    "settlement": {
        "t": 42.5, "contract_id": 4, "bid_id": 3, "site_id": "site-0",
        "outcome": "completed", "actual_price": 78.5, "agreed_price": 78.5,
        "actual_completion": 42.5, "on_time": True, "runtime": 30.0, "value": 80.25,
    },
}


def test_plain_values_take_the_fast_line():
    """A market's records are plain Python values: none of the four hot
    kinds reaches ``record()`` (and the bytes are still the encoder's)."""
    reached = []

    class Counting(FlightRecorder):
        def record(self, kind, t, **fields):
            reached.append(kind)
            return super().record(kind, t, **fields)

    recorder_calls = [_call(emitter, plain) for emitter, plain in PLAIN.items()]
    recorder_calls += [
        _call("quote", {**PLAIN["quote"], "price": None, "site_id": "sé-1"}),
        _call("bid", {**PLAIN["bid"], "client_id": None, "bound": None}),
        _call("award", {**PLAIN["award"], "task_tid": None}),
        _call("settlement", {**PLAIN["settlement"], "actual_completion": None}),
    ]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "j.jsonl")
        with Counting(sink=JournalSink(path, fsync="off")) as journaled:
            for emitter, *args in recorder_calls:
                getattr(journaled, emitter)(*args)
    assert reached == []
    lines, rows = _journal_lines(recorder_calls)
    assert lines == [_encode_row(row) for row in rows]


#: what each field is made in turn, the others plain
ODD_VALUES = (
    math.nan, math.inf, -math.inf, np.float64(1.5), np.float64(-0.0), np.float64(math.inf),
    7, True, False, None, "x",
)


def test_each_field_made_odd_is_spelled_as_the_encoder_spells_it():
    recorder_calls = []
    for emitter, plain in PLAIN.items():
        recorder_calls.append(_call(emitter, plain))
        for name in plain:
            for value in ODD_VALUES:
                if name == "t" and (value is None or type(value) is str):
                    continue  # float() refuses it on every path
                recorder_calls.append(_call(emitter, {**plain, name: value}))
    lines, rows = _journal_lines(recorder_calls)
    assert [row["seq"] for row in rows] == list(range(1, len(recorder_calls) + 1))
    for line, row in zip(lines, rows):
        assert line == _encode_row(row)
