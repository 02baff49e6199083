"""A damaged journal is read by one set of rules (ROADMAP 3(c), journal half).

A small live journal — a scripted service on the kernel that settled some
contracts and crashed with others open — has records dropped,
duplicated, swapped with their neighbour and perturbed.  Whatever the
damage, the audit reports on it, crash recovery plans from it or refuses
it as corrupt, and replay re-runs it or refuses it.  And the totals
recovery would carry into a restarted service are the audit's books: a
closing ``site_summary`` written from them reconciles to the cent.

The same contract holds byte by byte: a small market's file journal,
written through the journal sink, has a bit flipped, a span deleted or
duplicated, or is cut anywhere — and the reader returns or raises
``ValueError``, the audit reports, and replay runs or raises
``ValueError``.
"""

import copy
import os
import tempfile

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit import audit_recording
from repro.errors import LiveServiceError
from repro.live.api import parse_bid_body
from repro.live.config import LiveConfig, LiveSiteSpec
from repro.live.recovery import plan_recovery
from repro.obs.flight import FlightRecorder, Recording, read_recording
from repro.replay import parse_policy, replay_recording
from repro.sim import SimClock, Simulator

from tests.live.scripted import scripted_service


def _crashed_journal() -> Recording:
    config = LiveConfig(
        rate=60.0,
        sites=(
            LiveSiteSpec(site_id="live-0", slots=1, threshold=-1e9),
            LiveSiteSpec(site_id="live-1", slots=2, threshold=-1e9),
        ),
    )
    sim = Simulator()
    flight = FlightRecorder(clock_domain="wall")
    service, executors = scripted_service(config, clock=SimClock(sim), flight=flight)
    body = '{"bids": [%s]}' % ", ".join(
        '{"runtime": 30, "value": 80, "decay": 0.05, "bound": 20}' for _ in range(2)
    )
    for round_ in range(3):
        service.handle_bids(parse_bid_body(body.encode()), idempotency_key=f"key-{round_}")
        sim.run(until=sim.now + 20.0)
        # one run ends per round; the rest are still running at the crash
        executor = executors[round_ % 2]
        for task, _ in list(executor.running.values())[:1]:
            executor.end(task)
    # no drain: the journal ends with contracts open, as a crash leaves it
    return flight.recording()


JOURNAL = _crashed_journal()


def _first(kind):
    return next(i for i, event in enumerate(JOURNAL.events) if event["kind"] == kind)

#: (what, index, change): ``change`` scales a float field, shifts an int
mutations = st.lists(
    st.tuples(
        st.sampled_from(["drop", "duplicate", "swap", "perturb"]),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([0.5, 0.9, 1.1, 2.0]),
    ),
    min_size=1,
    max_size=4,
)


def _mutated(damage) -> Recording:
    events = copy.deepcopy(JOURNAL.events)
    for what, index, change in damage:
        if not events:
            break
        at = index % len(events)
        if what == "drop":
            del events[at]
        elif what == "duplicate":
            events.insert(at + 1, dict(events[at]))
        elif what == "swap" and at + 1 < len(events):
            events[at], events[at + 1] = events[at + 1], events[at]
        elif what == "perturb":
            record = events[at]
            numbers = sorted(
                key for key, value in record.items()
                if type(value) in (int, float) and key not in ("seq", "t")
            )
            if numbers:
                key = numbers[index % len(numbers)]
                value = record[key]
                record[key] = value * change if type(value) is float else value + 1
    return Recording(schema=JOURNAL.schema, clock=JOURNAL.clock, events=events)


def test_the_source_journal_has_settled_and_open_contracts():
    kinds = [event["kind"] for event in JOURNAL.events]
    assert kinds.count("settlement") >= 2
    plan = plan_recovery(JOURNAL)
    assert len(plan.open_contracts) >= 2
    assert audit_recording(JOURNAL).counts["intents"] > 0


@settings(max_examples=60, deadline=None)
@given(damage=mutations)
# recovery used to carry every award and settlement record
@example(damage=[("duplicate", _first("settlement"), 1.0)])
@example(damage=[("duplicate", _first("award"), 1.0)])
# replay used to refuse a repeated site record (a recovered journal's)
@example(damage=[("duplicate", _first("site"), 1.0)])
def test_every_reader_answers_a_damaged_journal(damage):
    recording = _mutated(damage)
    report = audit_recording(recording)
    assert isinstance(report.to_doc()["violations"], list)
    try:
        replay_recording(recording, [parse_policy("recorded")])
    except ValueError:
        pass
    try:
        plan = plan_recovery(recording)
    except LiveServiceError:
        return

    # a restarted service closes its books from the carried totals: they
    # must be the totals the audit reconciles the journal against
    summaries = [
        {
            "seq": len(recording.events) + n, "kind": "site_summary", "t": 0.0,
            "site_id": site_id, "revenue": books.revenue,
            "contracts": books.contracts,
        }
        for n, (site_id, books) in enumerate(sorted(plan.books.items()), start=1)
    ]
    closed = Recording(
        schema=recording.schema,
        clock=recording.clock,
        events=[e for e in recording.events if e["kind"] != "site_summary"] + summaries,
    )
    codes = {v["code"] for v in audit_recording(closed).violations}
    assert not codes & {"revenue_mismatch", "contract_count_mismatch"}, damage


# ----------------------------------------------------------------------
# Byte-level damage to a file journal
# ----------------------------------------------------------------------

def _market_journal() -> bytes:
    from repro.market import MarketSite, run_market
    from repro.scheduling import FirstReward
    from repro.sim import Simulator
    from repro.site import SlackAdmission
    from repro.workload import economy_spec, generate_trace

    trace = generate_trace(economy_spec(n_jobs=12, load_factor=1.5, processors=4), seed=2)
    sim = Simulator()
    sites = [
        MarketSite(sim, f"site-{i}", 2, FirstReward(0.3, 0.01), admission=SlackAdmission(60.0))
        for i in range(2)
    ]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "market.jsonl")
        with FlightRecorder(path) as flight:
            run_market(trace, sites, flight=flight)
        with open(path, "rb") as handle:
            return handle.read()


MARKET_JOURNAL = _market_journal()

#: (what, offset, size): flip bit ``size % 8`` of the byte at ``offset``,
#: delete or duplicate ``size`` bytes from it, or cut the file there
byte_damage = st.tuples(
    st.sampled_from(["flip", "delete", "duplicate", "cut"]),
    st.integers(min_value=0, max_value=len(MARKET_JOURNAL) - 1),
    st.integers(min_value=1, max_value=64),
)


def _damaged(data: bytes, what: str, offset: int, size: int) -> bytes:
    if what == "flip":
        return data[:offset] + bytes([data[offset] ^ (1 << size % 8)]) + data[offset + 1:]
    if what == "delete":
        return data[:offset] + data[offset + size:]
    if what == "duplicate":
        return data[:offset + size] + data[offset:offset + size] + data[offset + size:]
    return data[:offset]


def _read(data: bytes) -> Recording:
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "journal.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        return read_recording(path)


def _every_reader_answers(data: bytes) -> None:
    try:
        recording = _read(data)
    except ValueError:
        return
    assert isinstance(audit_recording(recording).to_doc()["violations"], list)
    try:
        replay_recording(recording, [parse_policy("recorded")])
    except ValueError:
        pass


def test_the_market_journal_reads_audits_and_replays():
    kinds = {event["kind"] for event in _read(MARKET_JOURNAL).events}
    assert {"site", "bid", "quote", "award", "settlement", "site_summary"} <= kinds
    _every_reader_answers(MARKET_JOURNAL)


@settings(max_examples=150, deadline=None)
@given(damage=byte_damage)
def test_every_reader_answers_damaged_bytes(damage):
    _every_reader_answers(_damaged(MARKET_JOURNAL, *damage))


#: ``site`` records replay could not build a site from: each raised the
#: library's own ``SchedulingError``/``AdmissionError`` out of replay
#: (``"alphe"`` is one bit flip away from ``"alpha"``)
@pytest.mark.parametrize(
    "recorded, damaged",
    [
        ('"alpha": 0.3', '"alphe": 0.3'),
        ('"heuristic": "firstreward"', '"heuristic": "nosuch"'),
        ('"alpha": 0.3', '"alpha": 7.0'),
        ('"capacity": 2', '"capacity": 0'),
        ('"threshold": 60.0', '"threshold": NaN'),
    ],
)
def test_replay_refuses_a_site_it_cannot_build(recorded, damaged):
    data = MARKET_JOURNAL.replace(recorded.encode(), damaged.encode(), 1)
    assert data != MARKET_JOURNAL
    recording = _read(data)
    with pytest.raises(ValueError, match="^site site-0: "):
        replay_recording(recording, [parse_policy("recorded")])
    _every_reader_answers(data)
