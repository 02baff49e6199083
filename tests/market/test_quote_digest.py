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
"""

import hashlib
import json

from repro.market import MarketSite, run_market
from repro.obs.flight import FlightRecorder
from repro.scheduling import FirstReward
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.workload import economy_spec, generate_trace

QUOTES_SHA256 = "4781798b3019624f5cc3f2de0cd14ca5b83ad36cf09d18595624a5e6ce89d65b"


def recorded_quotes() -> list[dict]:
    spec = economy_spec(
        n_jobs=300, value_skew=3, decay_skew=5, load_factor=2.0,
        processors=16, penalty_bound=None,
    )
    trace = generate_trace(spec, seed=0)
    sim = Simulator()
    sites = [
        MarketSite(sim, f"site-{i}", 4, FirstReward(0.3, 0.01), admission=SlackAdmission(180.0))
        for i in range(4)
    ]
    flight = FlightRecorder(clock_domain="sim")
    run_market(trace, sites, flight=flight)
    return [
        {key: value for key, value in record.items() if key != "bid_id"}
        for record in flight.events
        if record["kind"] == "quote"
    ]


def test_every_quote_equals_the_reference():
    quotes = recorded_quotes()
    assert len(quotes) == 1200
    issued = sum(q["verdict"] == "issued" for q in quotes)
    assert 0 < issued < len(quotes)  # both verdicts are pinned
    # json writes each float as its shortest round-trip repr: the bits
    blob = json.dumps(quotes, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == QUOTES_SHA256
