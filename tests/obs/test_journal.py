"""JournalSink: the flight recorder's crash-durable write path.

The sink's contract is what recovery leans on: every fsync policy
produces the same parseable JSONL, ``append=True`` stitches onto an
existing journal (exactly one header, torn tail repaired), and the
fsync cadence matches the documented policy.
"""

from __future__ import annotations

import os

import pytest

from repro.obs.flight import (
    FSYNC_INTERVAL_RECORDS,
    FlightRecorder,
    JournalSink,
    read_recording,
)


def test_bad_fsync_policy_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="fsync policy"):
        JournalSink(str(tmp_path / "j.jsonl"), fsync="sometimes")


@pytest.mark.parametrize("policy", ["always", "interval", "off"])
def test_every_policy_writes_the_same_parseable_journal(tmp_path, policy):
    path = str(tmp_path / f"{policy}.jsonl")
    with FlightRecorder(sink=JournalSink(path, fsync=policy), clock_domain="wall") as flight:
        for i in range(5):
            flight.intent(float(i), "accept", bid_id=i)
    recording = read_recording(path)
    assert recording.clock == "wall"
    assert [e["bid_id"] for e in recording.of_kind("intent")] == list(range(5))


def test_fsync_cadence_per_policy(tmp_path):
    n = FSYNC_INTERVAL_RECORDS * 2 + 3

    def write(policy):
        sink = JournalSink(str(tmp_path / f"{policy}.jsonl"), fsync=policy)
        for i in range(n):
            sink.write_line("{}")
        return sink

    always = write("always")
    assert always.syncs == n
    interval = write("interval")
    # one sync per full interval; the partial tail syncs only at close
    assert interval.syncs == 2
    interval.close()
    assert interval.syncs == 3
    off = write("off")
    off.close()
    assert off.syncs == 0


def test_a_record_and_its_newline_are_one_write(tmp_path):
    """A crash between two writes would leave a complete record unterminated."""
    path = tmp_path / "j.jsonl"
    sink = JournalSink(str(path), fsync="off")
    written: list[bytes] = []
    real_write = sink._file.write
    sink._file.write = lambda data: written.append(data) or real_write(data)
    sink.write_line('{"seq": 1}')
    sink.write_line('{"seq": 2}')
    sink.close()
    assert written == [b'{"seq": 1}\n', b'{"seq": 2}\n']
    assert path.read_text() == '{"seq": 1}\n{"seq": 2}\n'


def test_a_short_write_is_finished_before_write_line_returns(tmp_path):
    """The file is unbuffered: a record is in the kernel when
    ``write_line`` returns, even when the kernel takes it in parts."""
    path = tmp_path / "j.jsonl"
    sink = JournalSink(str(path), fsync="off")
    written: list[bytes] = []
    real_write = sink._file.write

    def three_bytes_at_a_time(data):
        written.append(bytes(data))
        return real_write(data[:3])

    sink._file.write = three_bytes_at_a_time
    sink.write_line('{"seq": 1}')
    assert path.read_bytes() == b'{"seq": 1}\n'  # before close: nothing held back
    assert written[0] == b'{"seq": 1}\n' and len(written) == 4
    sink.close()


def test_close_is_idempotent_and_reported(tmp_path):
    sink = JournalSink(str(tmp_path / "j.jsonl"), fsync="always")
    assert not sink.closed
    sink.close()
    assert sink.closed
    sink.close()  # second close is a no-op, not an error


def test_append_continues_the_journal_with_one_header(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with FlightRecorder(sink=JournalSink(path, fsync="always"), clock_domain="wall") as flight:
        flight.intent(1.0, "accept", bid_id=1)
        pre_crash_seq = flight.seq

    resumed_sink = JournalSink(path, fsync="always", append=True)
    assert resumed_sink.appending
    resumed = FlightRecorder(sink=resumed_sink, clock_domain="wall")
    resumed.seq = pre_crash_seq  # recovery resumes the numbering
    resumed.intent(2.0, "accept", bid_id=2)
    resumed.close()

    recording = read_recording(path)
    headers = open(path).read().count('"kind": "header"')
    assert headers == 1, "appending must not write a second header"
    assert [e["seq"] for e in recording.events] == [1, 2]
    assert [e["bid_id"] for e in recording.of_kind("intent")] == [1, 2]


def test_append_repairs_a_torn_final_line(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with FlightRecorder(sink=JournalSink(path, fsync="off"), clock_domain="wall") as flight:
        flight.intent(1.0, "accept", bid_id=1)
    with open(path, "a") as handle:
        handle.write('{"seq": 3, "kind": "inte')  # the crashed writer's fragment

    resumed = FlightRecorder(
        sink=JournalSink(path, fsync="always", append=True), clock_domain="wall"
    )
    resumed.seq = 2
    resumed.intent(2.0, "accept", bid_id=2)
    resumed.close()

    # without the trim, the new record would weld onto the fragment and
    # read_recording would raise on an unreadable interior line
    recording = read_recording(path)
    assert [e["bid_id"] for e in recording.of_kind("intent")] == [1, 2]


def test_append_to_a_missing_file_starts_fresh(tmp_path):
    path = str(tmp_path / "new.jsonl")
    sink = JournalSink(path, fsync="always", append=True)
    assert not sink.appending  # nothing prior: the recorder writes a header
    with FlightRecorder(sink=sink, clock_domain="wall") as flight:
        flight.intent(1.0, "accept", bid_id=1)
    assert len(read_recording(path).events) == 1


# ----------------------------------------------------------------------
# Offloaded interval fsync (the live service's event-loop protection)
# ----------------------------------------------------------------------

def test_interval_syncs_route_through_offload(tmp_path):
    submitted = []
    sink = JournalSink(str(tmp_path / "j.jsonl"), fsync="interval")
    sink.set_offload(submitted.append)
    for _ in range(FSYNC_INTERVAL_RECORDS):
        sink.write_line("{}")
    # exactly one submission per full interval; counters advance at
    # submission so cadence accounting matches the synchronous path
    assert len(submitted) == 1
    assert sink.syncs == 1
    for _ in range(FSYNC_INTERVAL_RECORDS):
        sink.write_line("{}")
    assert len(submitted) == 2
    submitted[0]()  # the deferred fsync runs cleanly while the sink is open
    sink.close()


def test_offload_does_not_touch_always_policy(tmp_path):
    submitted = []
    sink = JournalSink(str(tmp_path / "j.jsonl"), fsync="always")
    sink.set_offload(submitted.append)
    for _ in range(FSYNC_INTERVAL_RECORDS + 1):
        sink.write_line("{}")
    sink.close()
    # "always" is the operator's write-ahead ordering: never weakened
    assert submitted == []
    assert sink.syncs == FSYNC_INTERVAL_RECORDS + 1


def test_offloaded_sync_after_close_is_harmless(tmp_path):
    submitted = []
    sink = JournalSink(str(tmp_path / "j.jsonl"), fsync="interval")
    sink.set_offload(submitted.append)
    for _ in range(FSYNC_INTERVAL_RECORDS):
        sink.write_line("{}")
    sink.close()
    # the pool drains the queued sync after close has fsynced and closed
    # the fd; the job syncs its own duplicate of the fd, so it cannot fail
    (pending,) = submitted
    pending()


def test_close_syncs_what_an_offloaded_sync_has_not(tmp_path, monkeypatch):
    """``close`` hands back a synced file even when the last interval's
    fsync was only submitted, and the late job syncs a descriptor of its
    own — never the sink's closed fd number, which the next ``open`` may
    reuse for another file."""
    synced: list[int] = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
    submitted = []
    sink = JournalSink(str(tmp_path / "j.jsonl"), fsync="interval")
    sink.set_offload(submitted.append)
    for _ in range(FSYNC_INTERVAL_RECORDS):
        sink.write_line("{}")
    assert synced == [] and len(submitted) == 1
    fd = sink._file.fileno()
    sink.close()
    assert synced == [fd]  # synchronous, before the fd closed

    reused = os.open(str(tmp_path / "other"), os.O_CREAT | os.O_WRONLY)
    try:
        (pending,) = submitted
        pending()
        assert len(synced) == 2 and synced[1] not in (fd, reused)
        with pytest.raises(OSError):
            os.fstat(synced[1])  # the job closed its duplicate
    finally:
        os.close(reused)


def test_clearing_offload_restores_synchronous_syncs(tmp_path):
    submitted = []
    sink = JournalSink(str(tmp_path / "j.jsonl"), fsync="interval")
    sink.set_offload(submitted.append)
    sink.set_offload(None)
    for _ in range(FSYNC_INTERVAL_RECORDS):
        sink.write_line("{}")
    assert submitted == []
    assert sink.syncs == 1
    sink.close()
