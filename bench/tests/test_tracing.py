"""Span self-time arithmetic, the residual, and traced == untraced digests."""

import pytest

from bench.sim_workloads import SIM_WORKLOADS, TraceCounters, layer_metrics
from bench.spec import SMOKE
from bench.tracing import LayerTime, Tracer, residual_share, self_times


def test_self_time_is_duration_minus_direct_children():
    #  root 0..10
    #    a  1..4        (child of root)
    #      b 2..3       (child of a)
    #    a  5..9        (child of root)
    names = ["root", "a", "b", "a"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    layers = self_times(names, parents, starts, ends)
    assert layers["root"] == LayerTime(calls=1, inclusive_s=10.0, self_s=3.0)
    assert layers["a"] == LayerTime(calls=2, inclusive_s=7.0, self_s=6.0)
    assert layers["b"] == LayerTime(calls=1, inclusive_s=1.0, self_s=1.0)
    # the self times of a tree add up to its root
    assert sum(layer.self_s for layer in layers.values()) == 10.0
    assert self_times([], [], [], []) == {}


def test_residual_is_what_no_span_explains():
    layers = {"x": LayerTime(1, 6.0, 6.0), "y": LayerTime(1, 3.0, 3.0)}
    assert residual_share(10.0, layers) == pytest.approx(0.1)
    assert residual_share(9.0, layers) == 0.0
    with pytest.raises(ValueError):
        residual_share(0.0, layers)


def test_tracer_records_parents_and_refuses_to_drain_open_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        assert tracer.depth == 1
        tracer.wrap("inner", lambda: None)()
        with pytest.raises(RuntimeError):
            tracer.drain()
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    layers = tracer.drain()
    assert layers["inner"].calls == 1
    assert layers["outer"].self_s == pytest.approx(
        layers["outer"].inclusive_s - layers["inner"].inclusive_s
    )
    assert tracer.names == []


def test_a_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.depth == 0
    assert tracer.drain()["boom"].calls == 1


@pytest.mark.parametrize("name", sorted(SIM_WORKLOADS))
def test_traced_wrappers_leave_digests_identical(name, tmp_path):
    workload = SIM_WORKLOADS[name](SMOKE, 0, str(tmp_path))
    untraced = {unit: workload.run(unit) for unit in workload.units if unit in
                workload.traced_units or unit == "unrecorded"}
    tracer, counters = Tracer(), TraceCounters()
    total = 0.0
    for unit in workload.traced_units:
        outcome = workload.run_traced(unit, tracer, counters)
        assert outcome.digest == untraced[unit].digest, unit
        total += outcome.wall_s
    metrics = layer_metrics(tracer.drain(), counters, total)
    assert metrics["sim.events"] > 0 or name == "market_recorded"
    assert 0.0 <= metrics["budget.residual_share"] < 0.25
    if name == "backlog_dispatch":
        assert metrics["site.admission.evaluate_calls"] == 0
        assert metrics["site.preempt_swaps"] > 0
    else:
        assert metrics["site.admission.evaluate_calls"] > 0
