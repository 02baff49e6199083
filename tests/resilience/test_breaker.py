"""Unit tests for the per-site circuit breaker state machine."""

import pytest

from repro.errors import MarketError
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.config import ResilienceConfig


def make_breaker(**overrides) -> CircuitBreaker:
    defaults = dict(
        enabled=True,
        breaker_failures=3,
        breach_rate_threshold=0.5,
        breaker_min_events=5,
        cooldown=100.0,
        half_open_probes=1,
    )
    defaults.update(overrides)
    return CircuitBreaker("s1", ResilienceConfig(**defaults))


class TestTripWires:
    def test_closed_allows_by_default(self):
        breaker = make_breaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_consecutive_failures_trip_open(self):
        breaker = make_breaker(breaker_failures=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(3.0)

    def test_success_resets_consecutive_count(self):
        breaker = make_breaker(breaker_failures=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(2.5)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state is BreakerState.CLOSED

    def test_breach_rate_trips_once_armed(self):
        breaker = make_breaker(
            breaker_failures=100, breach_rate_threshold=0.5, breaker_min_events=5
        )
        # below the event floor the rate wire stays disarmed
        breaker.record_failure(1.0, breach_rate=0.9, events=4)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2.0, breach_rate=0.9, events=5)
        assert breaker.state is BreakerState.OPEN

    def test_low_breach_rate_does_not_trip(self):
        breaker = make_breaker(breaker_failures=100)
        breaker.record_failure(1.0, breach_rate=0.1, events=50)
        assert breaker.state is BreakerState.CLOSED


class TestRecoveryCycle:
    def test_cooldown_flips_open_to_half_open_via_allow(self):
        breaker = make_breaker(breaker_failures=1, cooldown=100.0)
        breaker.record_failure(10.0)
        assert not breaker.allow(50.0)  # cooling down
        assert breaker.allow(110.0)  # cooldown elapsed: probe admitted
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_bounds_probes_in_flight(self):
        breaker = make_breaker(breaker_failures=1, cooldown=10.0, half_open_probes=1)
        breaker.record_failure(0.0)
        assert breaker.allow(20.0)
        breaker.note_probe()
        assert not breaker.allow(21.0)  # probe budget exhausted

    def test_probe_success_recloses(self):
        breaker = make_breaker(breaker_failures=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(20.0)
        breaker.note_probe()
        breaker.record_success(25.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = make_breaker(breaker_failures=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(20.0)
        breaker.note_probe()
        breaker.record_failure(25.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert not breaker.allow(30.0)  # new cooldown runs from 25
        assert breaker.allow(35.0)


class TestBooks:
    def test_open_time_accumulates_across_cycles(self):
        breaker = make_breaker(breaker_failures=1, cooldown=10.0)
        breaker.record_failure(0.0)  # open [0, ...
        assert breaker.allow(15.0)  # ... 15): 15 open
        breaker.note_probe()
        breaker.record_failure(16.0)  # open again [16, ...
        breaker.finalize(20.0)  # ... 20]: +4
        assert breaker.open_time == pytest.approx(19.0)

    def test_finalize_rejects_time_travel(self):
        breaker = make_breaker(breaker_failures=1)
        breaker.record_failure(50.0)
        with pytest.raises(MarketError, match="precedes"):
            breaker.finalize(10.0)

    def test_transition_log_records_every_move(self):
        breaker = make_breaker(breaker_failures=1, cooldown=10.0)
        breaker.record_failure(1.0)
        breaker.allow(20.0)
        breaker.note_probe()
        breaker.record_success(21.0)
        assert breaker.transitions == [
            (1.0, "closed", "open"),
            (20.0, "open", "half_open"),
            (21.0, "half_open", "closed"),
        ]

    def test_transitions_deterministic_for_same_event_sequence(self):
        def drive(breaker):
            breaker.record_failure(1.0)
            breaker.record_failure(2.0)
            breaker.allow(150.0)
            breaker.note_probe()
            breaker.record_failure(151.0)
            breaker.allow(300.0)
            breaker.note_probe()
            breaker.record_success(301.0)
            return breaker.transitions

        assert drive(make_breaker(breaker_failures=2)) == drive(
            make_breaker(breaker_failures=2)
        )

    def test_summary_shape(self):
        breaker = make_breaker(breaker_failures=1)
        breaker.record_failure(5.0)
        breaker.finalize(10.0)
        summary = breaker.summary()
        assert summary["state"] == "open"
        assert summary["opens"] == 1
        assert summary["open_time"] == pytest.approx(5.0)
        assert summary["transitions"] == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(health_alpha=0.0),
            dict(health_alpha=1.5),
            dict(initial_health=-0.1),
            dict(breaker_failures=0),
            dict(breach_rate_threshold=0.0),
            dict(breach_rate_threshold=1.5),
            dict(breaker_min_events=0),
            dict(cooldown=-1.0),
            dict(half_open_probes=0),
            dict(failover_budget=-1),
            dict(failover_delay=-1.0),
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(MarketError):
            ResilienceConfig(**overrides)

    def test_defaults_are_disabled_and_valid(self):
        config = ResilienceConfig()
        assert not config.enabled
