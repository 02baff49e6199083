"""Crash recovery: replay the write-ahead journal, settle the wreckage.

A SIGKILLed (or power-cut) live service leaves three kinds of debris:

* **Orphaned subprocesses** — children reparented to init, still
  burning CPU for contracts nobody will settle.  Every spawn was
  journaled (``intent`` record, action ``spawn``) with its PID and
  ``argv[0]``, so recovery can find and kill them.
* **Open contracts** — awards with no settlement on the record.  The
  market's conservation law (every contract settles exactly once) must
  hold over the *stitched* journal, so recovery rebuilds each open
  contract and abandons it at the value-function floor
  (:meth:`~repro.tasks.contract.Contract.settle_abandoned`).
* **A half-served dedup table** — journaled ``response`` intents carry
  the idempotency key and the exact response document, so a client
  retrying across the crash still gets the original bytes back.

The split is plan/apply: :func:`plan_recovery` is a pure function of
the parsed recording (no clock, no syscalls — this module is
timestamp-passive under lint rule OBS002, so every timestamp arrives as
a parameter), while :func:`apply_recovery` executes the plan against a
freshly built service, journaling each step as ``recovery`` records
onto the same journal, and returns once intake can resume.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Optional

from repro.audit import SiteBooks, fold_books
from repro.errors import LiveServiceError
from repro.obs.flight import Recording
from repro.tasks.bid import ServerBid, TaskBid, reserve_bid_ids
from repro.tasks.contract import Contract, reserve_contract_ids
from repro.tasks.task import reserve_task_ids


@dataclass(frozen=True)
class OrphanProcess:
    """A journaled spawn whose contract never settled."""

    pid: int
    argv0: Optional[str]
    site_id: Optional[str]
    task_tid: Optional[int]
    contract_id: Optional[int]


@dataclass
class RecoveryPlan:
    """Everything :func:`apply_recovery` needs, derived from the journal."""

    resume_at: float
    next_seq: int
    next_bid_id: int
    next_contract_id: int
    next_task_tid: int
    #: ``(award, bid)`` records of every booked contract with no settlement
    open_contracts: list[tuple[dict, dict]] = field(default_factory=list)
    orphans: list[OrphanProcess] = field(default_factory=list)
    responses: dict[str, object] = field(default_factory=dict)
    #: the audit's per-site totals, carried into the restart
    books: dict[str, SiteBooks] = field(default_factory=dict)


def plan_recovery(recording: Recording) -> RecoveryPlan:
    """Derive a :class:`RecoveryPlan` from a parsed pre-crash journal.

    Pure over the recording: reads no clock, touches no process state.
    Open contracts and carried totals are the audit's books
    (:func:`~repro.audit.fold_books`); recovery's own are the ``intent``
    records and the high-water marks for time, seq and ids.  Raises
    :class:`~repro.errors.LiveServiceError` when the journal is
    internally inconsistent (an award referencing a bid that was never
    journaled — the write-ahead ordering makes that impossible short of
    journal corruption).
    """
    if recording.clock != "wall":
        raise LiveServiceError(
            f"can only recover a live (wall-clock) journal, got {recording.clock!r}"
        )
    books = fold_books(recording)
    resume_at = max([0.0, *(float(event["t"]) for event in recording.events)])
    max_seq = max([0, *(event["seq"] for event in recording.events)])
    awards = books.awards.values()
    max_bid = max([*books.bids, *(award["bid_id"] for award in awards)], default=-1)
    tids = [award["task_tid"] for award in awards if award.get("task_tid") is not None]
    spawns: dict[int, dict] = {}  # pid -> latest spawn intent
    responses: dict[str, object] = {}
    for event in books.records["intent"]:
        action = event.get("action")
        if action == "spawn" and event.get("pid") is not None:
            spawns[event["pid"]] = event
        elif action == "response" and event.get("idempotency_key"):
            responses[str(event["idempotency_key"])] = event.get("response")
        elif action == "accept" and event.get("bid_id") is not None:
            max_bid = max(max_bid, event["bid_id"])

    open_contracts: list[tuple[dict, dict]] = []
    for contract_id, award in sorted(books.awards.items()):
        if contract_id in books.settlements:
            continue
        bid = books.bids.get(award["bid_id"])
        if bid is None:
            raise LiveServiceError(
                f"journal corrupt: award for contract {contract_id} references "
                f"bid {award['bid_id']} with no bid record"
            )
        open_contracts.append((award, bid))

    open_ids = {award["contract_id"] for award, _ in open_contracts}
    orphans = [
        OrphanProcess(
            pid=spawn["pid"],
            argv0=spawn.get("argv0"),
            site_id=spawn.get("site_id"),
            task_tid=spawn.get("task_tid"),
            contract_id=spawn.get("contract_id"),
        )
        for _, spawn in sorted(spawns.items())
        if spawn.get("contract_id") in open_ids
    ]

    return RecoveryPlan(
        resume_at=resume_at,
        next_seq=max_seq,
        next_bid_id=max_bid + 1,
        next_contract_id=max(books.awards, default=-1) + 1,
        next_task_tid=max(tids, default=-1) + 1,
        open_contracts=open_contracts,
        orphans=orphans,
        responses=responses,
        books=books.sites,
    )


def _pid_matches(pid: int, argv0: Optional[str]) -> bool:
    """Best-effort guard against PID reuse before sending SIGKILL.

    Where ``/proc`` exposes the command line, require ``argv[0]`` to
    match the journaled one; a recycled PID running something else is
    left alone.  On platforms without ``/proc`` the check passes — the
    kill then relies on the journal being recent.
    """
    cmdline_path = f"/proc/{pid}/cmdline"
    if argv0 is None or not os.path.exists(cmdline_path):
        return True
    try:
        with open(cmdline_path, "rb") as handle:
            first = handle.read().split(b"\0", 1)[0].decode("utf-8", "replace")
    except OSError:
        return False  # racing the exit: it is already gone
    return first == argv0


def kill_orphans(orphans: list[OrphanProcess]) -> list[OrphanProcess]:
    """SIGKILL every still-alive orphan; returns the ones actually killed.

    Tolerates already-dead PIDs (``ProcessLookupError``) and refuses to
    signal a PID whose command line no longer matches the journal.
    """
    killed: list[OrphanProcess] = []
    for orphan in orphans:
        if not _pid_matches(orphan.pid, orphan.argv0):
            continue
        try:
            os.kill(orphan.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            continue
        killed.append(orphan)
    return killed


def rebuild_contract(award: dict, bid: dict) -> Contract:
    """Reconstruct a pre-crash contract from its ``award`` and ``bid`` records."""
    task_bid = TaskBid(
        runtime=float(bid["runtime"]),
        value=float(bid["value"]),
        decay=float(bid["decay"]),
        bound=bid.get("bound"),
        client_id=bid.get("client_id"),
        released_at=bid.get("released_at"),
        bid_id=award["bid_id"],
    )
    server_bid = ServerBid(
        site_id=award["site_id"],
        bid_id=award["bid_id"],
        expected_completion=float(award["promised_completion"]),
        expected_price=float(award["agreed_price"]),
        expected_slack=0.0,
    )
    contract = Contract(task_bid, server_bid, signed_at=float(award["t"]))
    # __init__ drew a fresh id; restore the journaled identity so the
    # stitched settlement matches its award
    contract.contract_id = award["contract_id"]
    contract.task_tid = award.get("task_tid")
    return contract


def apply_recovery(service, plan: RecoveryPlan, now: float) -> int:
    """Execute *plan* against a freshly built service at time *now*.

    Order matters: orphans die first (nothing may mutate contract state
    while we settle it), then the carried books are seeded and open
    contracts settle onto them as abandonments, then the dedup table is
    seeded, and finally the id counters are reserved past everything on
    the record.  Each step is journaled as a ``recovery`` record;
    returns the number of contracts re-settled.
    """
    flight = service.flight
    if flight is not None:
        flight.recovery(
            now,
            "begin",
            open_contracts=len(plan.open_contracts),
            orphans=len(plan.orphans),
            responses=len(plan.responses),
        )

    killed = kill_orphans(plan.orphans)
    if flight is not None:
        for orphan in plan.orphans:
            flight.recovery(
                now,
                "kill",
                pid=orphan.pid,
                site_id=orphan.site_id,
                task_tid=orphan.task_tid,
                contract_id=orphan.contract_id,
                killed=orphan in killed,
            )

    sites = {site.site_id: site for site in service.sites}
    for site_id, carried in plan.books.items():
        # the drain-time site summary reconciles against every settlement
        # and award in the stitched journal, not only this process's
        site = sites.get(site_id)
        if site is not None:
            site.revenue += carried.revenue
            site.contracts_signed += carried.contracts
            site.quotes_issued += carried.quotes_issued
            site.quotes_declined += carried.quotes_declined

    for award, bid in plan.open_contracts:
        contract = rebuild_contract(award, bid)
        release = bid.get("released_at")
        price = contract.settle_abandoned(
            now, release=contract.signed_at if release is None else release
        )
        site = sites.get(contract.site_id)
        if site is not None:
            site.revenue += price
        if flight is not None:
            flight.recovery(
                now,
                "resettle",
                contract_id=contract.contract_id,
                bid_id=contract.bid.bid_id,
                site_id=contract.site_id,
                price=price,
            )
            flight.settlement(now, contract, "abandoned")

    for key, doc in plan.responses.items():
        service.restore_response(key, doc)

    reserve_bid_ids(plan.next_bid_id)
    reserve_contract_ids(plan.next_contract_id)
    reserve_task_ids(plan.next_task_tid)

    if flight is not None:
        flight.recovery(
            now,
            "resume",
            resettled=len(plan.open_contracts),
            killed=len(killed),
            next_bid_id=plan.next_bid_id,
            next_contract_id=plan.next_contract_id,
        )
    return len(plan.open_contracts)
