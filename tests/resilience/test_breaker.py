"""Unit tests for the per-site circuit breaker state machine."""

import pytest

from repro.errors import MarketError
from repro.resilience.breaker import (
    BREACH_RATE_THRESHOLD,
    BREAKER_FAILURES,
    BREAKER_MIN_EVENTS,
    COOLDOWN,
    HALF_OPEN_PROBES,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.config import ResilienceConfig


def tripped(at: float = 0.0) -> CircuitBreaker:
    """A breaker opened at *at* by consecutive breaches."""
    breaker = CircuitBreaker("s1")
    for _ in range(BREAKER_FAILURES):
        breaker.record_failure(at)
    assert breaker.state is BreakerState.OPEN
    return breaker


class TestTripWires:
    def test_closed_allows_by_default(self):
        breaker = CircuitBreaker("s1")
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_consecutive_failures_trip_open(self):
        breaker = CircuitBreaker("s1")
        for t in range(1, BREAKER_FAILURES):
            breaker.record_failure(float(t))
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(float(BREAKER_FAILURES))
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(float(BREAKER_FAILURES))

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("s1")
        for t in range(1, BREAKER_FAILURES):
            breaker.record_failure(float(t))
        breaker.record_success(float(BREAKER_FAILURES))
        for t in range(1, BREAKER_FAILURES):
            breaker.record_failure(BREAKER_FAILURES + float(t))
        assert breaker.state is BreakerState.CLOSED

    def test_breach_rate_trips_once_armed(self):
        breaker = CircuitBreaker("s1")
        rate = min(1.0, BREACH_RATE_THRESHOLD + 0.1)
        # below the event floor the rate wire stays disarmed
        breaker.record_failure(1.0, breach_rate=rate, events=BREAKER_MIN_EVENTS - 1)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2.0, breach_rate=rate, events=BREAKER_MIN_EVENTS)
        assert breaker.consecutive_failures < BREAKER_FAILURES  # the rate tripped it
        assert breaker.state is BreakerState.OPEN

    def test_low_breach_rate_does_not_trip(self):
        breaker = CircuitBreaker("s1")
        breaker.record_failure(1.0, breach_rate=BREACH_RATE_THRESHOLD / 5, events=50)
        assert breaker.state is BreakerState.CLOSED


class TestRecoveryCycle:
    def test_cooldown_flips_open_to_half_open_via_allow(self):
        breaker = tripped(at=10.0)
        assert not breaker.allow(10.0 + COOLDOWN / 2)  # cooling down
        assert breaker.allow(10.0 + COOLDOWN)  # cooldown elapsed: probe admitted
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_bounds_probes_in_flight(self):
        breaker = tripped()
        for _ in range(HALF_OPEN_PROBES):
            assert breaker.allow(COOLDOWN + 10.0)
            breaker.note_probe()
        assert not breaker.allow(COOLDOWN + 11.0)  # probe budget exhausted

    def test_probe_success_recloses(self):
        breaker = tripped()
        assert breaker.allow(COOLDOWN + 10.0)
        breaker.note_probe()
        breaker.record_success(COOLDOWN + 15.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = tripped()
        assert breaker.allow(COOLDOWN + 10.0)
        breaker.note_probe()
        breaker.record_failure(COOLDOWN + 15.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        # the new cooldown runs from the probe's failure
        assert not breaker.allow(2 * COOLDOWN + 10.0)
        assert breaker.allow(2 * COOLDOWN + 15.0)


class TestBooks:
    def test_open_time_accumulates_across_cycles(self):
        breaker = tripped()  # open [0, ...
        assert breaker.allow(COOLDOWN + 5.0)  # ... COOLDOWN + 5)
        breaker.note_probe()
        breaker.record_failure(COOLDOWN + 6.0)  # open again [COOLDOWN + 6, ...
        breaker.finalize(COOLDOWN + 10.0)  # ... COOLDOWN + 10]: +4
        assert breaker.open_time == pytest.approx(COOLDOWN + 9.0)

    def test_finalize_rejects_time_travel(self):
        breaker = tripped(at=50.0)
        with pytest.raises(MarketError, match="precedes"):
            breaker.finalize(10.0)

    def test_transition_log_records_every_move(self):
        breaker = tripped(at=1.0)
        breaker.allow(COOLDOWN + 20.0)
        breaker.note_probe()
        breaker.record_success(COOLDOWN + 21.0)
        assert breaker.transitions == [
            (1.0, "closed", "open"),
            (COOLDOWN + 20.0, "open", "half_open"),
            (COOLDOWN + 21.0, "half_open", "closed"),
        ]

    def test_transitions_deterministic_for_same_event_sequence(self):
        def drive(breaker):
            for t in range(BREAKER_FAILURES):
                breaker.record_failure(float(t))
            breaker.allow(COOLDOWN + 50.0)
            breaker.note_probe()
            breaker.record_failure(COOLDOWN + 51.0)
            breaker.allow(2 * COOLDOWN + 100.0)
            breaker.note_probe()
            breaker.record_success(2 * COOLDOWN + 101.0)
            return breaker.transitions

        assert drive(CircuitBreaker("s1")) == drive(CircuitBreaker("s1"))

    def test_summary_shape(self):
        breaker = tripped(at=5.0)
        breaker.finalize(10.0)
        summary = breaker.summary()
        assert summary["state"] == "open"
        assert summary["opens"] == 1
        assert summary["open_time"] == pytest.approx(5.0)
        assert summary["transitions"] == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides", [pytest.param(dict(failover_budget=-1), id="overrides9")]
    )
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(MarketError):
            ResilienceConfig(**overrides)

    def test_defaults_are_disabled_and_valid(self):
        config = ResilienceConfig()
        assert not config.enabled
