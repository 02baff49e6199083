"""Double-entry economic audit over a market flight recording.

The market's money flow obeys a handful of conservation laws: a task's
value is created exactly once (at bid), an award needs an issued quote,
a contract settles exactly once, a breach refund never hands the client
more than it committed plus the site's penalty, and every site's
recorded settlements must reconcile with its closing books to the cent.
``repro audit`` replays a recording's ledger against those laws and
reports machine-readable violations — generalizing the resilience
layer's conservation property (value settles exactly once) into a
runtime auditor usable on any recording, sim or live.

Violation codes::

    duplicate_bid            bid_id recorded twice — value created twice
    quote_unknown_bid        quote references a bid never recorded
    award_unknown_bid        award references a bid never recorded
    award_without_quote      award with no issued quote from that site
    award_above_quote        agreed price exceeds the quoted price
    duplicate_award          contract_id awarded twice
    settlement_without_award settlement for an unknown contract
    duplicate_settlement     contract settled twice
    settlement_exceeds_value settled price exceeds the bid's value
    settlement_price_drift   completed price != value function's price
    refund_exceeds_commitment breach/abandon settles above committed spend
    unsettled_contract       award whose contract never settled
    revenue_mismatch         site summary revenue != sum of settlements
    contract_count_mismatch  site summary contract count != awards seen
    recovery_without_award   crash recovery re-settled an unknown contract

Durability records (the live service's write-ahead journal) are part of
the ledger too: ``intent``/``shed``/``recovery`` records are counted,
and a ``recovery`` re-settlement must reference a contract actually
awarded on the record — recovery may close books, never invent them.

The checks read one fold of the recording (:func:`fold_books`), and so
do crash recovery, replay and the price board: one set of books.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs.flight import Recording, read_recording

#: Bump when the violation-report layout changes incompatibly.
AUDIT_SCHEMA = 1

#: "To the cent": reconciliation tolerance for money sums.
CENT = 0.005

#: Relative tolerance for recomputed single prices (float round-trip).
_REL = 1e-9


@dataclass
class AuditReport:
    """The outcome of auditing one recording."""

    clock: str
    counts: dict = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str, **context: object) -> None:
        self.violations.append({"code": code, "message": message, **context})

    def to_doc(self) -> dict:
        return {
            "schema": AUDIT_SCHEMA,
            "ok": self.ok,
            "clock": self.clock,
            "counts": self.counts,
            "violations": self.violations,
        }

    def format(self) -> str:
        lines = [
            f"audit: {self.counts.get('bids', 0)} bids, "
            f"{self.counts.get('quotes', 0)} quotes, "
            f"{self.counts.get('awards', 0)} awards, "
            f"{self.counts.get('settlements', 0)} settlements "
            f"({self.clock} clock)"
        ]
        if self.ok:
            lines.append("audit: ledger is clean — every invariant holds")
        else:
            lines.append(f"audit: {len(self.violations)} violation(s)")
            for violation in self.violations:
                context = {
                    k: v
                    for k, v in violation.items()
                    if k not in ("code", "message")
                }
                suffix = f"  {context}" if context else ""
                lines.append(f"  [{violation['code']}] {violation['message']}{suffix}")
        return "\n".join(lines)


def _price_of(bid: dict, completion: float, release: float) -> float:
    """Recompute the contract price from the bid's value function."""
    from repro.valuefn.linear import LinearDecayValueFunction

    bound = bid.get("bound")
    vf = LinearDecayValueFunction(
        bid["value"], bid["decay"], None if bound is None else bound
    )
    delay = max(0.0, completion - release - bid["runtime"])
    return vf.yield_at(delay)


@dataclass
class SiteBooks:
    """One site's totals on the record: what its closing books must show."""

    revenue: float = 0.0
    contracts: int = 0
    quotes_issued: int = 0
    quotes_declined: int = 0


@dataclass
class Books:
    """A recording's ledger, folded once by the audit's rules.

    The first ``bid`` record of a bid id books the bid, the first
    ``award`` of a contract id signs the contract, the first
    ``settlement`` closes it; a later record under a booked id is a
    repeat (:meth:`is_repeat`), never booked.  Every dict keeps
    recording order, so a sum over it adds in the market's order.
    """

    #: every record, by kind, in recording order
    records: dict[str, list[dict]] = field(default_factory=lambda: defaultdict(list))
    #: the first ``bid`` record per bid id
    bids: dict[int, dict] = field(default_factory=dict)
    #: the best issued quote price per (site, bid)
    quoted: dict[tuple[str, int], float] = field(default_factory=dict)
    #: the first ``award`` record per contract id
    awards: dict[int, dict] = field(default_factory=dict)
    #: the first booked award per bid id
    awards_by_bid: dict[int, dict] = field(default_factory=dict)
    #: the first ``settlement`` record per contract id
    settlements: dict[int, dict] = field(default_factory=dict)
    #: per-site totals: booked awards and settlements, every quote
    sites: dict[str, SiteBooks] = field(default_factory=lambda: defaultdict(SiteBooks))

    def is_repeat(self, event: dict) -> bool:
        """Whether a ``bid``/``award``/``settlement`` record went unbooked."""
        if event["kind"] == "bid":
            return self.bids[event["bid_id"]] is not event
        booked = self.awards if event["kind"] == "award" else self.settlements
        return booked[event["contract_id"]] is not event

    def total_revenue(self) -> float:
        """Settled revenue, summed per site in order of first settlement."""
        order = dict.fromkeys(event["site_id"] for event in self.settlements.values())
        return sum(self.sites[site_id].revenue for site_id in order)


def fold_books(recording: Recording) -> Books:
    """Fold *recording* into its :class:`Books`, in one pass."""
    books = Books()
    for event in recording.events:
        kind = event["kind"]
        books.records[kind].append(event)
        if kind == "bid":
            books.bids.setdefault(event["bid_id"], event)
        elif kind == "quote":
            site = books.sites[event["site_id"]]
            if event["verdict"] == "issued":
                site.quotes_issued += 1
                key = (event["site_id"], event["bid_id"])
                books.quoted[key] = max(books.quoted.get(key, -math.inf), event["price"])
            else:
                site.quotes_declined += 1
        elif kind == "award":
            if event["contract_id"] not in books.awards:
                books.awards[event["contract_id"]] = event
                books.awards_by_bid.setdefault(event["bid_id"], event)
                books.sites[event["site_id"]].contracts += 1
        elif kind == "settlement":
            if event["contract_id"] not in books.settlements:
                books.settlements[event["contract_id"]] = event
                books.sites[event["site_id"]].revenue += event["price"]
    return books


def audit_recording(recording: Recording) -> AuditReport:
    """Check every economic invariant over *recording*'s ledger."""
    report = AuditReport(clock=recording.clock)
    books = fold_books(recording)
    bids = books.bids

    for event in books.records["bid"]:
        if books.is_repeat(event):
            report.add(
                "duplicate_bid",
                f"bid {event['bid_id']} recorded twice — task value created twice",
                bid_id=event["bid_id"],
                seq=event["seq"],
            )

    for event in books.records["quote"]:
        if event["bid_id"] not in bids:
            report.add(
                "quote_unknown_bid",
                f"quote from {event['site_id']} references unknown bid "
                f"{event['bid_id']}",
                bid_id=event["bid_id"],
                site_id=event["site_id"],
                seq=event["seq"],
            )

    quoted_price = books.quoted  # the precondition for any award
    for event in books.records["award"]:
        bid_id = event["bid_id"]
        site_id = event["site_id"]
        if bid_id not in bids:
            report.add(
                "award_unknown_bid",
                f"award of unknown bid {bid_id} to {site_id}",
                bid_id=bid_id,
                site_id=site_id,
                seq=event["seq"],
            )
        key = (site_id, bid_id)
        if key not in quoted_price:
            report.add(
                "award_without_quote",
                f"bid {bid_id} awarded to {site_id} with no issued quote on record",
                bid_id=bid_id,
                site_id=site_id,
                seq=event["seq"],
            )
        elif event["agreed_price"] > quoted_price[key] + CENT:
            report.add(
                "award_above_quote",
                f"contract {event['contract_id']} agreed at "
                f"{event['agreed_price']:.4f} > quoted {quoted_price[key]:.4f} "
                "(pricing may only hold or lower the quote)",
                contract_id=event["contract_id"],
                site_id=site_id,
                seq=event["seq"],
            )
        if books.is_repeat(event):
            report.add(
                "duplicate_award",
                f"contract {event['contract_id']} awarded twice",
                contract_id=event["contract_id"],
                seq=event["seq"],
            )

    awards = books.awards
    for event in books.records["settlement"]:
        contract_id = event["contract_id"]
        if contract_id not in awards:
            report.add(
                "settlement_without_award",
                f"settlement of unknown contract {contract_id}",
                contract_id=contract_id,
                seq=event["seq"],
            )
        if books.is_repeat(event):
            report.add(
                "duplicate_settlement",
                f"contract {contract_id} settled twice — value settles once",
                contract_id=contract_id,
                seq=event["seq"],
            )
            continue
        price = event["price"]
        bid = bids.get(event["bid_id"])
        if bid is None:
            continue  # already reported via the award/quote checks
        tolerance = max(CENT, abs(bid["value"]) * _REL)
        if price > bid["value"] + tolerance:
            report.add(
                "settlement_exceeds_value",
                f"contract {contract_id} settled at {price:.4f} > bid value "
                f"{bid['value']:.4f} — value cannot be created at settlement",
                contract_id=contract_id,
                seq=event["seq"],
            )
        if event["outcome"] == "completed":
            release = bid.get("released_at")
            if release is None:
                release = bid["t"]
            expected = _price_of(bid, event["completion"], release)
            if abs(price - expected) > tolerance:
                report.add(
                    "settlement_price_drift",
                    f"contract {contract_id} settled at {price:.4f}, value "
                    f"function prices its completion at {expected:.4f}",
                    contract_id=contract_id,
                    seq=event["seq"],
                )
        else:  # breached / abandoned
            committed = max(0.0, event["agreed_price"])
            if price > committed + tolerance:
                report.add(
                    "refund_exceeds_commitment",
                    f"contract {contract_id} {event['outcome']} yet settled at "
                    f"{price:.4f} > committed spend {committed:.4f} — the "
                    "client would be refunded value it never committed",
                    contract_id=contract_id,
                    seq=event["seq"],
                )

    for contract_id, award in sorted(awards.items()):
        if contract_id not in books.settlements:
            report.add(
                "unsettled_contract",
                f"contract {contract_id} (bid {award['bid_id']} at "
                f"{award['site_id']}) never settled",
                contract_id=contract_id,
                site_id=award["site_id"],
            )

    for event in books.records["recovery"]:
        if event.get("action") != "resettle":
            continue
        contract_id = event.get("contract_id")
        if contract_id not in awards:
            report.add(
                "recovery_without_award",
                f"crash recovery re-settled contract {contract_id} with no "
                "award on record — recovery may close books, never invent them",
                contract_id=contract_id,
                seq=event["seq"],
            )

    for event in books.records["site_summary"]:
        site_id = event["site_id"]
        site = books.sites.get(site_id, SiteBooks())
        if abs(event["revenue"] - site.revenue) > CENT:
            report.add(
                "revenue_mismatch",
                f"site {site_id} closing revenue {event['revenue']:.4f} != "
                f"{site.revenue:.4f} summed from its settlements",
                site_id=site_id,
                seq=event["seq"],
            )
        if event["contracts"] != site.contracts:
            report.add(
                "contract_count_mismatch",
                f"site {site_id} closing books show {event['contracts']} "
                f"contracts, recording has {site.contracts} awards",
                site_id=site_id,
                seq=event["seq"],
            )

    report.counts = {
        "bids": len(bids),
        "quotes": len(books.records["quote"]),
        "quotes_issued": sum(site.quotes_issued for site in books.sites.values()),
        "awards": len(awards),
        "settlements": len(books.records["settlement"]),
        "sites": len(books.records["site_summary"]),
        "intents": len(books.records["intent"]),
        "sheds": len(books.records["shed"]),
        "recoveries": len(books.records["recovery"]),
        "total_revenue": books.total_revenue(),
    }
    return report


# ----------------------------------------------------------------------
# CLI (`repro audit`)
# ----------------------------------------------------------------------

def add_audit_arguments(parser) -> None:
    parser.add_argument("recording", help="flight-recorder JSONL file to audit")
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="also write the report as JSON"
    )


def run_audit(args) -> int:
    """Entry point for ``repro audit``: 0 clean, 1 violations, 2 unreadable."""
    try:
        recording = read_recording(args.recording)
    except (OSError, ValueError) as exc:
        print(f"audit: cannot read recording: {exc}")
        return 2
    report = audit_recording(recording)
    if args.fmt == "json":
        print(json.dumps(report.to_doc(), sort_keys=True, indent=1))
    else:
        print(report.format())
    if args.out:
        directory = os.path.dirname(args.out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(report.to_doc(), handle, sort_keys=True, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


__all__ = [
    "AUDIT_SCHEMA",
    "AuditReport",
    "Books",
    "SiteBooks",
    "fold_books",
    "audit_recording",
    "add_audit_arguments",
    "run_audit",
]
