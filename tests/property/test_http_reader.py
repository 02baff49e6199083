"""Property tests: the HTTP reader parses a request or refuses it with a 4xx.

``_read_request`` is fed through ``StreamReader.feed_data`` (no socket):
request lines, header sets and bodies, whole or cut short at any byte.
The contract: every input ends in a parsed request, a 4xx
:class:`~repro.live.api.ApiError`, or ``IncompleteReadError`` (the client
hung up mid-body) — never another exception, which the front end would
answer as a 500.  A parsed request carries one framing: every
``Content-Length`` it sent was ASCII digits of one value, and the body is
exactly that many bytes.  Every ``Idempotency-Key`` it sent had one value,
and that key then passes
:func:`~repro.live.api.parse_idempotency_key` or is refused with a 400.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.api import MAX_IDEMPOTENCY_KEY, ApiError, parse_idempotency_key
from repro.live.httpd import MAX_BODY, _read_request

#: past ``StreamReader``'s default 64 KiB line limit
OVERLONG = 70_000

request_lines = st.one_of(
    st.tuples(
        st.sampled_from(["POST", "GET", "PUT", "post"]),
        st.sampled_from(["/bids", "/tasks", "/tasks/7", "/", "/bids?x=1"]),
        st.sampled_from(["HTTP/1.1", "HTTP/1.0"]),
    ).map(" ".join),
    st.text(st.characters(blacklist_characters="\r\n"), max_size=30),
)
lengths = st.one_of(
    st.integers(min_value=0, max_value=12).map(str),
    st.sampled_from(
        ["", "-5", "+3", "1_0", " 4 ", "3, 3", "0x10", "٣", "00003", "1e3",
         str(MAX_BODY), str(MAX_BODY + 1), "9" * 5000]
    ),
)
keys = st.one_of(
    st.text(st.characters(blacklist_characters="\r\n"), max_size=12),
    st.sampled_from(["", "   ", "k" * MAX_IDEMPOTENCY_KEY, "k" * (MAX_IDEMPOTENCY_KEY + 1)]),
)
headers = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["Content-Length", "content-length"]), lengths),
        st.tuples(st.just("Idempotency-Key"), keys),
        st.tuples(st.sampled_from(["Accept", "Host"]), st.sampled_from(["text/plain", "a"])),
        st.tuples(st.just("X-Pad"), st.just("a" * OVERLONG)),
        st.tuples(st.just("no colon here"), st.just(None)),
    ),
    max_size=5,
)


def read_fed(raw: bytes):
    """``_read_request`` on *raw* fed to a bare StreamReader, then EOF."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(main())


def head_of(request_line: str, header_set) -> bytes:
    lines = [request_line]
    for name, value in header_set:
        lines.append(name if value is None else f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(
    request_line=request_lines,
    header_set=headers,
    body=st.binary(max_size=16),
    data=st.data(),
)
def test_every_request_is_parsed_or_refused_with_a_4xx(request_line, header_set, body, data):
    raw = head_of(request_line, header_set) + body
    cut = data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))
    try:
        method, path, got, accept, idempotency_key = read_fed(raw[:cut])
    except ApiError as exc:
        assert 400 <= exc.status < 500
        return
    except asyncio.IncompleteReadError:
        return
    lengths_sent = [v.strip() for name, v in header_set if name.lower() == "content-length"]
    if cut == len(raw):
        # the whole request arrived: its framing is the one it declared
        assert all(v.isascii() and v.isdigit() for v in lengths_sent)
        assert len({int(v) for v in lengths_sent}) <= 1
        keys_sent = {
            v.encode().decode("latin-1").strip()
            for name, v in header_set
            if name == "Idempotency-Key"
        }
        assert len(keys_sent) <= 1
        declared = int(lengths_sent[0]) if lengths_sent else 0
        assert got == body[:declared] and len(got) == declared
        if request_line.isascii():
            assert [method, path] == request_line.split()[:2]
    try:
        key = parse_idempotency_key(idempotency_key)
    except ApiError as exc:
        assert exc.status == 400
    else:
        assert key is None or 0 < len(key) <= MAX_IDEMPOTENCY_KEY


# ----------------------------------------------------------------------
# Pinned examples
# ----------------------------------------------------------------------

BIDS = "POST /bids HTTP/1.1\r\n{}\r\n{}"


def test_an_overlong_request_line_is_a_400():
    # readline turns the reader's LimitOverrunError into a ValueError,
    # which the front end answered as a 500
    with pytest.raises(ApiError, match="too long") as info:
        read_fed(b"GET /" + b"a" * OVERLONG + b" HTTP/1.1\r\n\r\n")
    assert info.value.status == 400


def test_an_overlong_header_line_is_a_400():
    raw = BIDS.format("X-Pad: " + "a" * OVERLONG + "\r\nContent-Length: 2\r\n", "{}")
    with pytest.raises(ApiError, match="too long") as info:
        read_fed(raw.encode())
    assert info.value.status == 400


def test_conflicting_content_lengths_are_a_400():
    # the last one won: 3 then 5 read five bytes
    raw = BIDS.format("Content-Length: 3\r\nContent-Length: 5\r\n", "12345")
    with pytest.raises(ApiError, match="conflicting Content-Length") as info:
        read_fed(raw.encode())
    assert info.value.status == 400
    # the same value twice is one framing
    raw = BIDS.format("Content-Length: 3\r\nContent-Length: 3\r\n", "123")
    assert read_fed(raw.encode())[2] == b"123"


def test_conflicting_idempotency_keys_are_a_400():
    # the last one won: a retry repeating only the first key was no replay
    raw = BIDS.format("Idempotency-Key: a\r\nIdempotency-Key: b\r\n", "")
    with pytest.raises(ApiError, match="conflicting Idempotency-Key") as info:
        read_fed(raw.encode())
    assert info.value.status == 400
    # the same key twice is one key
    raw = BIDS.format("Idempotency-Key: a\r\nIdempotency-Key:  a \r\n", "")
    assert read_fed(raw.encode())[4] == "a"


@pytest.mark.parametrize(
    "length", ["+3", "1_0", "٣", " ", "3 3"],
    ids=["plus", "underscore", "arabic-indic", "blank", "two-numbers"],
)
def test_a_length_that_is_not_ascii_digits_is_a_400(length):
    raw = BIDS.format(f"Content-Length: {length}\r\n", "0123456789")
    with pytest.raises(ApiError, match="bad Content-Length") as info:
        read_fed(raw.encode())
    assert info.value.status == 400


def test_a_length_past_int_s_digit_limit_is_a_400():
    raw = BIDS.format("Content-Length: " + "9" * 5000 + "\r\n", "")
    with pytest.raises(ApiError, match="bad Content-Length") as info:
        read_fed(raw.encode())
    assert info.value.status == 400


def test_a_body_cut_short_is_a_hang_up():
    with pytest.raises(asyncio.IncompleteReadError):
        read_fed(BIDS.format("Content-Length: 5\r\n", "12").encode())
