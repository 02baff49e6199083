"""Record → replay A/B analysis over a market flight recording.

A flight recording (:mod:`repro.obs.flight`) captures every bid the
market saw — including live sessions, where the workload came from real
HTTP clients and cannot be regenerated from a seed.  This module
reconstructs that workload as a :class:`~repro.workload.trace.Trace`
and re-runs it through the simulator under alternative policies
(scheduling heuristic, slack threshold, broker strategy, Vickrey
pricing), answering "what would yield/revenue/acceptance have been had
the service been configured differently?" without touching production.

The A/B table compares each policy against the recording's own ledger
(the ``recorded`` baseline row); the divergence report lists the first
bids whose fate changed (accepted↔rejected, or won by another site).
Bids are matched by *ordinal* in arrival order, not by ``bid_id`` —
ids come from a process-global counter and differ across runs.

No clock is read here (OBS002): replays run on the simulator's virtual
clock, and all recorded timestamps come from the recording itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.audit import Books, fold_books
from repro.errors import ReproError
from repro.obs.flight import FlightRecorder, Recording, read_recording

#: Bump when the replay-report layout changes incompatibly.
REPLAY_SCHEMA = 1

_STRATEGIES = ("best-yield", "best-surplus", "earliest")


@dataclass(frozen=True)
class PolicySpec:
    """One alternative configuration to replay the workload under.

    ``None`` fields inherit the recording's own per-site configuration
    (from its ``site`` records), so ``PolicySpec("recorded")`` replays
    the baseline policy verbatim.  An inherited heuristic keeps its
    recorded parameters, with *heuristic_params* laid over them; a named
    one is built from *heuristic_params* alone.
    """

    name: str
    heuristic: Optional[str] = None
    heuristic_params: dict = field(default_factory=dict)
    threshold: Optional[float] = None
    discount_rate: Optional[float] = None
    strategy: str = "best-yield"
    vickrey: bool = False

    def describe(self) -> dict:
        return {
            "name": self.name,
            "heuristic": self.heuristic,
            "heuristic_params": dict(self.heuristic_params),
            "threshold": self.threshold,
            "discount_rate": self.discount_rate,
            "strategy": self.strategy,
            "vickrey": self.vickrey,
        }


def parse_policy(text: str) -> PolicySpec:
    """Parse ``name`` or ``name:key=val,key=val`` into a :class:`PolicySpec`.

    Recognized keys: ``heuristic``, ``threshold``, ``discount_rate``,
    ``strategy``, ``vickrey``; any other key is passed through as a
    heuristic constructor parameter (e.g. ``alpha=0.5``).

    >>> parse_policy("risky:heuristic=firstreward,threshold=0,alpha=0.5").threshold
    0.0
    """
    name, _, spec = text.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"policy needs a name: {text!r}")
    fields: dict = {}
    params: dict = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, eq, raw = part.partition("=")
        if not eq:
            raise ValueError(f"policy option {part!r} is not key=value (in {text!r})")
        key, raw = key.strip(), raw.strip()
        if key == "heuristic":
            fields["heuristic"] = raw
        elif key == "strategy":
            if raw not in _STRATEGIES:
                raise ValueError(
                    f"unknown strategy {raw!r}; options: {list(_STRATEGIES)}"
                )
            fields["strategy"] = raw
        elif key == "vickrey":
            if raw.lower() not in ("true", "false", "1", "0"):
                raise ValueError(f"vickrey must be true/false, got {raw!r}")
            fields["vickrey"] = raw.lower() in ("true", "1")
        elif key in ("threshold", "discount_rate"):
            fields[key] = float(raw)
        else:
            params[key] = float(raw)
    return PolicySpec(name=name, heuristic_params=params, **fields)


# ----------------------------------------------------------------------
# Workload reconstruction
# ----------------------------------------------------------------------

def trace_from_recording(recording: Recording):
    """Rebuild the offered workload from a recording's ``bid`` events.

    Returns ``(trace, bid_events)`` with both in arrival order — the
    ordinal of a trace row is the ordinal used for divergence matching.
    Arrival is the bid's declared release time when present, else the
    record timestamp (live bids release at negotiation time).
    """
    from repro.workload.trace import Trace

    events = list(recording.of_kind("bid"))
    if not events:
        raise ValueError("recording contains no bid events; nothing to replay")

    def arrival_of(event: dict) -> float:
        release = event.get("released_at")
        return float(release if release is not None else event["t"])

    events.sort(key=lambda e: (arrival_of(e), e["seq"]))
    trace = Trace(
        arrival=np.array([arrival_of(e) for e in events]),
        runtime=np.array([e["runtime"] for e in events]),
        value=np.array([e["value"] for e in events]),
        decay=np.array([e["decay"] for e in events]),
        bound=np.array(
            [math.inf if e.get("bound") is None else e["bound"] for e in events]
        ),
        name=f"replay-of-{recording.clock}-recording",
    )
    return trace, events


def _site_configs(recording: Recording) -> list[dict]:
    configs: dict[str, dict] = {}
    for config in recording.of_kind("site"):
        # first record wins, as on the books (a restart re-journals sites)
        configs.setdefault(config["site_id"], config)
    if not configs:
        raise ValueError(
            "recording has no site records; it predates the flight schema "
            "or the recorder was attached after startup"
        )
    return list(configs.values())


def _build_sites(sim, configs: Sequence[dict], policy: PolicySpec) -> list:
    """One site per ``site`` record, under *policy*.

    A site its record (or the policy) cannot build is a bad input:
    ``ValueError("site <id>: …")``, never the library's own error.
    """
    sites = []
    for config in configs:
        try:
            sites.append(_build_site(sim, config, policy))
        except ReproError as exc:
            raise ValueError(f"site {config['site_id']}: {exc}") from exc
    return sites


def _build_site(sim, config: dict, policy: PolicySpec):
    from repro.market.sites import MarketSite
    from repro.scheduling.registry import make_heuristic
    from repro.site.admission import SlackAdmission

    if policy.heuristic is None:
        # recorded without parameters: rebuilt from the defaults
        params = dict(config.get("heuristic_params") or {})
        params.update(policy.heuristic_params)
        heuristic = make_heuristic(config["heuristic"], **params)
    else:
        heuristic = make_heuristic(policy.heuristic, **policy.heuristic_params)
    threshold = policy.threshold
    if threshold is None:
        threshold = config.get("threshold")
    discount = policy.discount_rate
    if discount is None:
        discount = config.get("discount_rate")
    admission = SlackAdmission(
        threshold=180.0 if threshold is None else threshold,
        discount_rate=0.01 if discount is None else discount,
    )
    return MarketSite(
        sim,
        site_id=config["site_id"],
        processors=int(config["capacity"]),
        heuristic=heuristic,
        admission=admission,
    )


# ----------------------------------------------------------------------
# Replay + A/B analysis
# ----------------------------------------------------------------------

def _fates(bid_events: Sequence[dict], books: Books) -> list[dict]:
    """Per-ordinal fate (accepted? by which site? outcome?) of each bid."""
    fates = []
    for event in bid_events:
        award = books.awards_by_bid.get(event["bid_id"], {})
        settlement = books.settlements.get(award.get("contract_id"), {})
        fates.append(
            {
                "accepted": bool(award),
                "site": award.get("site_id"),
                "outcome": settlement.get("outcome"),
            }
        )
    return fates


def _ledger_row(name: str, books: Books, offered_value: float) -> dict:
    """Summarize one recording's booked economics as an A/B table row."""
    bids = len(books.records["bid"])
    awards = len(books.awards)
    settlements = books.settlements.values()
    revenue = sum(e["price"] for e in settlements)
    breaches = sum(1 for e in settlements if e["outcome"] != "completed")
    return {
        "policy": name,
        "bids": bids,
        "accepted": awards,
        "acceptance_pct": (100.0 * awards / bids) if bids else 0.0,
        "revenue": revenue,
        "yield_pct": (100.0 * revenue / offered_value) if offered_value else 0.0,
        "breaches": breaches,
        "breach_pct": (100.0 * breaches / awards) if awards else 0.0,
    }


def replay_recording(
    recording: Recording,
    policies: Sequence[PolicySpec],
    divergence_limit: int = 25,
) -> dict:
    """Re-run a recording's workload under *policies* and tabulate A/B.

    Returns a JSON-ready document: the reconstructed-workload summary,
    one table row per policy (plus the ``recorded`` baseline), and per-
    policy divergence reports against the baseline's bid fates.
    """
    from repro.market.broker import (
        Broker,
        best_surplus,
        best_yield,
        earliest_completion,
    )
    from repro.market.economy import run_market

    strategy_fns = {
        "best-yield": best_yield,
        "best-surplus": best_surplus,
        "earliest": earliest_completion,
    }

    trace, bid_events = trace_from_recording(recording)
    configs = _site_configs(recording)
    offered_value = float(trace.value.sum())
    books = fold_books(recording)
    baseline_fates = _fates(bid_events, books)

    rows = [_ledger_row("recorded", books, offered_value)]
    divergences: dict[str, dict] = {}
    for policy in policies:
        from repro.sim.kernel import Simulator

        sim = Simulator()
        sites = _build_sites(sim, configs, policy)
        broker = Broker(
            sites=sites,
            strategy=strategy_fns[policy.strategy],
            vickrey=policy.vickrey,
        )
        shadow = FlightRecorder(clock_domain="sim")
        run_market(trace, sites, broker=broker, flight=shadow)
        replayed = fold_books(shadow.recording())
        rows.append(_ledger_row(policy.name, replayed, offered_value))

        replay_fates = _fates(replayed.records["bid"], replayed)
        changed = []
        for ordinal, (before, after) in enumerate(zip(baseline_fates, replay_fates)):
            if before["accepted"] == after["accepted"] and before["site"] == after["site"]:
                continue
            changed.append(
                {
                    "ordinal": ordinal,
                    "arrival": float(trace.arrival[ordinal]),
                    "runtime": float(trace.runtime[ordinal]),
                    "value": float(trace.value[ordinal]),
                    "recorded": before,
                    "replayed": after,
                }
            )
        divergences[policy.name] = {
            "changed_bids": len(changed),
            "total_bids": len(baseline_fates),
            "examples": changed[:divergence_limit],
        }

    return {
        "schema": REPLAY_SCHEMA,
        "source_clock": recording.clock,
        "workload": trace.summary(),
        "policies": [p.describe() for p in policies],
        "table": rows,
        "divergence": divergences,
    }


def format_table(doc: dict) -> str:
    """Render the A/B table (and divergence counts) as aligned text."""
    header = (
        "policy", "bids", "accepted", "accept%", "revenue", "yield%",
        "breaches", "breach%",
    )
    body = [
        (
            row["policy"],
            str(row["bids"]),
            str(row["accepted"]),
            f"{row['acceptance_pct']:.1f}",
            f"{row['revenue']:.2f}",
            f"{row['yield_pct']:.1f}",
            str(row["breaches"]),
            f"{row['breach_pct']:.1f}",
        )
        for row in doc["table"]
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(r[i].ljust(widths[i]) for i in range(len(r))) for r in body]
    for name, report in doc["divergence"].items():
        lines.append(
            f"divergence[{name}]: {report['changed_bids']}/{report['total_bids']} "
            "bids changed fate vs recorded"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI (`repro replay`)
# ----------------------------------------------------------------------

def add_replay_arguments(parser) -> None:
    parser.add_argument("recording", help="flight-recorder JSONL file to replay")
    parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "policy to A/B, as name[:key=val,...]; keys: heuristic, threshold, "
            "discount_rate, strategy (best-yield|best-surplus|earliest), "
            "vickrey, plus heuristic params like alpha. Repeatable; default "
            "replays the recorded configuration once."
        ),
    )
    parser.add_argument(
        "--divergence-limit", type=int, default=25, metavar="N",
        help="max changed-bid examples kept per policy (default 25)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="also write the report as JSON"
    )


def run_replay(args) -> int:
    """Entry point for ``repro replay``: 0 on success, 2 on a bad input."""
    try:
        recording = read_recording(args.recording)
    except (OSError, ValueError) as exc:
        print(f"replay: cannot read recording: {exc}")
        return 2
    try:
        policies = [parse_policy(p) for p in (args.policy or ["recorded"])]
        doc = replay_recording(
            recording, policies, divergence_limit=args.divergence_limit
        )
    except ValueError as exc:
        print(f"replay: {exc}")
        return 2
    if args.fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        print(format_table(doc))
    if args.out:
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(doc, handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


__all__ = [
    "REPLAY_SCHEMA",
    "PolicySpec",
    "parse_policy",
    "trace_from_recording",
    "replay_recording",
    "format_table",
    "add_replay_arguments",
    "run_replay",
]
