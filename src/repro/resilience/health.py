"""Per-site health scores from observed market outcomes.

The client side of the market can only judge a site by what it sees:
contracts settled on time, settled late, breached; tasks killed by
crashes and restarted.  Each outcome maps
to a score in [0, 1] and folds into an exponentially weighted moving
average per site — deterministic by construction (no randomness: the
score is a pure function of the outcome sequence, which is itself fixed
by the run's seed).

A separate breach-indicator EWMA feeds the circuit breaker's
breach-rate trip wire, so one number answers "how often does this site
burn a contract lately?" without a sliding-window buffer.
"""

from __future__ import annotations

from repro.errors import MarketError

#: EWMA smoothing factor of the per-site scores, in (0, 1]: the weight of
#: the most recent outcome.
HEALTH_ALPHA = 0.2
#: Score a site starts with before any outcome is observed.
INITIAL_HEALTH = 1.0

#: Outcome kinds and the health score each contributes.
OUTCOME_SCORES = {
    "completed": 1.0,  # contract settled at or before the promise
    "late": 0.6,  # settled, but past the promised completion
    "restart": 0.3,  # crash killed the task; the site is re-running it
    "breach": 0.0,  # contract settled at the penalty floor
}

#: Outcomes that count as *hard* failures for the circuit breaker.
HARD_FAILURES = frozenset({"breach"})


class SiteHealth:
    """EWMA health state for one site."""

    __slots__ = (
        "site_id",
        "score",
        "breach_rate",
        "events",
        "completions",
        "late",
        "restarts",
        "breaches",
    )

    def __init__(self, site_id: str, initial: float) -> None:
        self.site_id = site_id
        self.score = float(initial)
        self.breach_rate = 0.0
        self.events = 0
        self.completions = 0
        self.late = 0
        self.restarts = 0
        self.breaches = 0

    def observe(self, outcome: str, alpha: float) -> float:
        try:
            value = OUTCOME_SCORES[outcome]
        except KeyError:
            raise MarketError(
                f"unknown health outcome {outcome!r}; options: "
                f"{sorted(OUTCOME_SCORES)}"
            ) from None
        self.events += 1
        self.score += alpha * (value - self.score)
        breach = 1.0 if outcome == "breach" else 0.0
        self.breach_rate += alpha * (breach - self.breach_rate)
        counter = {
            "completed": "completions",
            "late": "late",
            "restart": "restarts",
            "breach": "breaches",
        }[outcome]
        setattr(self, counter, getattr(self, counter) + 1)
        return self.score

    def summary(self) -> dict:
        return {
            "score": self.score,
            "breach_rate": self.breach_rate,
            "events": self.events,
            "completions": self.completions,
            "late": self.late,
            "restarts": self.restarts,
            "breaches": self.breaches,
        }

    def __repr__(self) -> str:
        return (
            f"<SiteHealth {self.site_id!r} score={self.score:.3f} "
            f"breach_rate={self.breach_rate:.3f} events={self.events}>"
        )


class HealthTracker:
    """Health scores for every site in one market."""

    def __init__(self) -> None:
        self._sites: dict[str, SiteHealth] = {}

    def site(self, site_id: str) -> SiteHealth:
        health = self._sites.get(site_id)
        if health is None:
            health = SiteHealth(site_id, INITIAL_HEALTH)
            self._sites[site_id] = health
        return health

    def observe(self, site_id: str, outcome: str) -> float:
        """Fold one outcome into *site_id*'s EWMA; returns the new score."""
        return self.site(site_id).observe(outcome, HEALTH_ALPHA)

    def score(self, site_id: str) -> float:
        health = self._sites.get(site_id)
        return INITIAL_HEALTH if health is None else health.score

    def breach_rate(self, site_id: str) -> float:
        health = self._sites.get(site_id)
        return 0.0 if health is None else health.breach_rate

    def events(self, site_id: str) -> int:
        health = self._sites.get(site_id)
        return 0 if health is None else health.events

    def snapshot(self) -> dict:
        return {sid: h.summary() for sid, h in sorted(self._sites.items())}

    def __repr__(self) -> str:
        return f"<HealthTracker sites={len(self._sites)}>"
