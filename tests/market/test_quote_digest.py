"""Every quote of a recorded market, pinned to a fixed reference.

The Fig. 1 market: four sites of four processors, FirstReward(0.3, 0.01)
under slack admission at 180, and 300 bids of the economy stream
(value skew 3, decay skew 5, load 2.0, unbounded penalties).  Each bid
is quoted by every site, so its 1 200 ``quote`` records carry the slack,
expected completion, expected yield and price of every admission
decision.  Their sha256 was taken once and committed here: a change to
the admission path that moves any of those floats by one bit, or flips
a verdict, fails this test.  Bid ids come from a process-global counter
and are left out of the hash; the records' order and ``seq`` still tie
each quote to its bid.

The same market is pinned under FirstPrice and PresentValue(0.01)
sites, which admission ranks through the same scalar path at the keys
``(1, 0)`` and ``(1, r)``, and under FirstReward at a second seed.
"""

import hashlib
import json

import pytest

from repro.market import MarketSite, run_market
from repro.obs.flight import FlightRecorder
from repro.scheduling import FirstPrice, FirstReward, PresentValue
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.workload import economy_spec, generate_trace

QUOTES_SHA256 = "4781798b3019624f5cc3f2de0cd14ca5b83ad36cf09d18595624a5e6ce89d65b"

#: (heuristic, seed) -> sha256 of the quote records, taken the same way
MORE_QUOTES_SHA256 = {
    ("firstprice", 0): "e7f54fcf75ab0928de85939a05f8f9ae771781d8ffe623b9cbeadcee08322237",
    ("pv", 0): "61f9f5b8fdb96b9c6dfe33a52b71cd9ac1281a1fb58edd09b9d63e7ba48d48c2",
    ("firstreward", 1): "56658356e98f8fe3bb54bb82666cec9c5d4131110bd39d802b21818176c16484",
}

HEURISTICS = {
    "firstprice": FirstPrice,
    "pv": lambda: PresentValue(0.01),
    "firstreward": lambda: FirstReward(0.3, 0.01),
}


def recorded_quotes(heuristic: str = "firstreward", seed: int = 0) -> list[dict]:
    spec = economy_spec(
        n_jobs=300, value_skew=3, decay_skew=5, load_factor=2.0,
        processors=16, penalty_bound=None,
    )
    trace = generate_trace(spec, seed=seed)
    sim = Simulator()
    sites = [
        MarketSite(sim, f"site-{i}", 4, HEURISTICS[heuristic](),
                   admission=SlackAdmission(180.0))
        for i in range(4)
    ]
    flight = FlightRecorder(clock_domain="sim")
    run_market(trace, sites, flight=flight)
    return [
        {key: value for key, value in record.items() if key != "bid_id"}
        for record in flight.events
        if record["kind"] == "quote"
    ]


def quotes_sha256(quotes: list[dict]) -> str:
    assert len(quotes) == 1200
    issued = sum(q["verdict"] == "issued" for q in quotes)
    assert 0 < issued < len(quotes)  # both verdicts are pinned
    # json writes each float as its shortest round-trip repr: the bits
    blob = json.dumps(quotes, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_every_quote_equals_the_reference():
    assert quotes_sha256(recorded_quotes()) == QUOTES_SHA256


@pytest.mark.parametrize("heuristic, seed", sorted(MORE_QUOTES_SHA256))
def test_every_quote_of_each_key_equals_the_reference(heuristic, seed):
    quotes = recorded_quotes(heuristic, seed)
    assert quotes_sha256(quotes) == MORE_QUOTES_SHA256[heuristic, seed]
