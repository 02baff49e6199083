"""Property tests: the HTTP bid parser refuses a bid or hands over one the
market can build.

``parse_bid_body`` is the only gate between a ``POST /bids`` body and the
market, and a batch it accepts is negotiated bid by bid.  A bid it lets
through that :class:`~repro.tasks.bid.TaskBid` then refuses would fail
the batch half-way, after the bids before it were awarded.  So the
contract is: either :class:`~repro.live.api.ApiError`, or every request
builds a ``TaskBid`` — and a batch is refused whole exactly when one of
its bids is refused alone.  Bids draw finite extremes (``±1.7e308``,
``5e-324``, ``0``), negative values with and without a ``bound``, and
missing, null and unknown fields.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.api import ApiError, parse_bid, parse_bid_body
from repro.tasks.bid import TaskBid

extremes = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, -80.0, 1.7e308, -1.7e308]
)
numbers = st.one_of(
    extremes,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**6), max_value=10**6),
)
#: what a field can hold besides a number: a refusal or a null
odd = st.sampled_from([None, "1", True, [], {}])


@st.composite
def bid_objects(draw) -> dict:
    """A bid object: the three required fields usually present and
    numeric, the optional ones now and then, an unknown one rarely."""
    bid = {}
    for key in ("runtime", "value", "decay"):
        if draw(st.integers(0, 9)):
            bid[key] = draw(numbers if draw(st.integers(0, 9)) else odd)
    if draw(st.booleans()):
        bid["bound"] = draw(st.one_of(numbers, st.none()))
    if not draw(st.integers(0, 5)):
        bid["demand"] = draw(st.sampled_from([1, 2, 0, True, 1.0]))
    if not draw(st.integers(0, 5)):
        bid["client_id"] = draw(st.sampled_from(["c-1", 7, None]))
    if not draw(st.integers(0, 5)):
        bid["argv"] = draw(st.sampled_from([["sleep", "1"], [], ["x", 3], None]))
    if not draw(st.integers(0, 9)):
        bid["surprise"] = 1
    return bid


def accepted(bid: dict) -> bool:
    """Whether the parser takes *bid* alone; a taken one builds a TaskBid."""
    try:
        [request] = parse_bid_body(json.dumps(bid).encode())
    except ApiError:
        return False
    TaskBid(
        runtime=request.runtime,
        value=request.value,
        decay=request.decay,
        bound=request.bound,
        client_id=request.client_id,
    )
    return True


@given(bid=bid_objects())
@settings(max_examples=400, deadline=None)
def test_a_bid_is_refused_or_builds(bid):
    accepted(bid)


@given(batch=st.lists(bid_objects(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_a_batch_is_refused_whole_or_builds_every_bid(batch):
    body = json.dumps({"bids": batch}).encode()
    alone = [accepted(bid) for bid in batch]
    try:
        requests = parse_bid_body(body)
    except ApiError:
        assert not all(alone)
        return
    assert all(alone) and len(requests) == len(batch)


@given(
    value=st.one_of(extremes, st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
    bound=st.one_of(st.none(), extremes, st.floats(min_value=0.0, allow_infinity=False)),
)
@settings(max_examples=200, deadline=None)
def test_a_negative_value_needs_a_bound_at_or_below_it(value, bound):
    """A floor above the value is refused by the value function's rule:
    ``−bound ≤ value``, no floor at all, or an ``ApiError``."""
    payload = {"runtime": 1.0, "value": value, "decay": 1.0, "bound": bound}
    try:
        parse_bid(payload)
    except ApiError:
        assert bound is not None and (bound < 0 or -bound > value)
        return
    assert bound is None or -bound <= value
