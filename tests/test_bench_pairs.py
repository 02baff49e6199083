"""``scripts/bench_pairs.py --traced``: the exact-count comparison.

CI only ever runs the tool A/A, where no count can differ; the path that
fails a series is exercised here on canned runs.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED_STDOUT = """\
== market_recorded  seed=0 rounds=9 ops=40500 failed=0 correct=True host_pace=1.03
   sim.events                                1945.0000 count
   layer budget (self time, share of traced total):
     replay.replay                  calls=       1 self=   0.3393s  36.7%
     obs.flight.record              calls=    8398 self=   0.1105s  11.9%
     scheduling.scores              calls=    5049 self=   0.1522s  16.4%
{"correct": true}
"""


def test_budget_rows_are_read_as_span_counts(bench_pairs):
    rows = dict(bench_pairs._BUDGET_ROW.findall(TRACED_STDOUT))
    assert rows == {
        "replay.replay": "1",
        "obs.flight.record": "8398",
        "scheduling.scores": "5049",
    }


def side(**overrides):
    base = {
        "sim.events": 1945.0,
        "scheduling.scores_calls": 5049.0,
        "market.accept_share": 0.2967,
        "obs.flight.records": 8398.0,
        "spans:obs.flight.record": 8398.0,
        "scheduling.scores_us": 29.6,
        "site.preempt_swaps": 0.0,
    }
    base.update(overrides)
    return base


def test_equal_counts_pass_whatever_the_times_do(bench_pairs):
    table, differing = bench_pairs.traced_report(side(), side(**{"scheduling.scores_us": 18.5}))
    assert differing == []
    assert "differs" not in table
    assert "scheduling.scores_us" in table and "18.5" in table
    # a layer neither side entered is not listed
    assert "site.preempt_swaps" not in table


@pytest.mark.parametrize(
    "name, value",
    [
        ("scheduling.scores_calls", 5048.0),
        ("market.accept_share", 0.2968),
        ("spans:obs.flight.record", 8397.0),
        ("site.preempt_swaps", 3.0),
    ],
)
def test_a_moved_count_is_named(bench_pairs, name, value):
    table, differing = bench_pairs.traced_report(side(), side(**{name: value}))
    assert differing == [name]
    flagged = [line for line in table.splitlines() if "differs" in line]
    assert len(flagged) == 1 and flagged[0].startswith(name)


def test_a_span_only_one_side_has_counts_as_moved(bench_pairs):
    _, differing = bench_pairs.traced_report(side(), side(**{"spans:market.memo": 7.0}))
    assert differing == ["spans:market.memo"]
