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


@dataclass(frozen=True)
class OpenContract:
    """An award on the record with no matching settlement."""

    contract_id: int
    bid_id: int
    site_id: str
    task_tid: Optional[int]
    signed_at: float
    agreed_price: float
    promised_completion: float
    # the client bid's terms, replayed from its ``bid`` record
    runtime: float
    value: float
    decay: float
    bound: Optional[float]
    client_id: Optional[str]
    released_at: Optional[float]


@dataclass
class SiteBooks:
    """Pre-crash totals for one site, to be carried into the restart."""

    revenue: float = 0.0
    contracts: int = 0
    quotes_issued: int = 0
    quotes_declined: int = 0


@dataclass
class RecoveryPlan:
    """Everything :func:`apply_recovery` needs, derived from the journal."""

    resume_at: float
    next_seq: int
    next_bid_id: int
    next_contract_id: int
    next_task_tid: int
    open_contracts: list[OpenContract] = field(default_factory=list)
    orphans: list[OrphanProcess] = field(default_factory=list)
    responses: dict[str, object] = field(default_factory=dict)
    books: dict[str, SiteBooks] = field(default_factory=dict)


def plan_recovery(recording: Recording) -> RecoveryPlan:
    """Derive a :class:`RecoveryPlan` from a parsed pre-crash journal.

    Pure over the recording: reads no clock, touches no process state.
    Raises :class:`~repro.errors.LiveServiceError` when the journal is
    internally inconsistent (an award referencing a bid that was never
    journaled — the write-ahead ordering makes that impossible short of
    journal corruption).
    """
    if recording.clock != "wall":
        raise LiveServiceError(
            f"can only recover a live (wall-clock) journal, got {recording.clock!r}"
        )
    resume_at = 0.0
    max_seq = 0
    max_bid = -1
    max_contract = -1
    max_tid = -1
    bids: dict[int, dict] = {}
    awards: dict[int, dict] = {}
    settled: set[int] = set()
    spawns: dict[int, dict] = {}  # pid -> latest spawn intent
    responses: dict[str, object] = {}
    books: dict[str, SiteBooks] = {}

    def site_books(site_id: str) -> SiteBooks:
        return books.setdefault(site_id, SiteBooks())

    for event in recording.events:
        resume_at = max(resume_at, float(event.get("t", 0.0)))
        max_seq = max(max_seq, int(event.get("seq", 0)))
        kind = event["kind"]
        if kind == "bid":
            bids[event["bid_id"]] = event
            max_bid = max(max_bid, int(event["bid_id"]))
        elif kind == "site":
            site_books(event["site_id"])
        elif kind == "quote":
            if event.get("verdict") == "issued":
                site_books(event["site_id"]).quotes_issued += 1
            else:
                site_books(event["site_id"]).quotes_declined += 1
        elif kind == "award":
            awards[event["contract_id"]] = event
            max_contract = max(max_contract, int(event["contract_id"]))
            max_bid = max(max_bid, int(event["bid_id"]))
            if event.get("task_tid") is not None:
                max_tid = max(max_tid, int(event["task_tid"]))
            site_books(event["site_id"]).contracts += 1
        elif kind == "settlement":
            settled.add(event["contract_id"])
            site_books(event["site_id"]).revenue += float(event["price"])
        elif kind == "intent":
            action = event.get("action")
            if action == "spawn" and event.get("pid") is not None:
                spawns[int(event["pid"])] = event
            elif action == "response" and event.get("idempotency_key"):
                responses[str(event["idempotency_key"])] = event.get("response")
            elif action == "accept" and event.get("bid_id") is not None:
                max_bid = max(max_bid, int(event["bid_id"]))

    open_contracts: list[OpenContract] = []
    for contract_id, award in sorted(awards.items()):
        if contract_id in settled:
            continue
        bid = bids.get(award["bid_id"])
        if bid is None:
            raise LiveServiceError(
                f"journal corrupt: award for contract {contract_id} references "
                f"bid {award['bid_id']} with no bid record"
            )
        open_contracts.append(
            OpenContract(
                contract_id=int(contract_id),
                bid_id=int(award["bid_id"]),
                site_id=str(award["site_id"]),
                task_tid=award.get("task_tid"),
                signed_at=float(award["t"]),
                agreed_price=float(award["agreed_price"]),
                promised_completion=float(award["promised_completion"]),
                runtime=float(bid["runtime"]),
                value=float(bid["value"]),
                decay=float(bid["decay"]),
                bound=bid.get("bound"),
                client_id=bid.get("client_id"),
                released_at=bid.get("released_at"),
            )
        )

    open_ids = {oc.contract_id for oc in open_contracts}
    orphans = [
        OrphanProcess(
            pid=int(spawn["pid"]),
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
        next_contract_id=max_contract + 1,
        next_task_tid=max_tid + 1,
        open_contracts=open_contracts,
        orphans=orphans,
        responses=responses,
        books=books,
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


def rebuild_contract(oc: OpenContract) -> Contract:
    """Reconstruct a pre-crash contract from its journal records."""
    bid = TaskBid(
        runtime=oc.runtime,
        value=oc.value,
        decay=oc.decay,
        bound=oc.bound,
        client_id=oc.client_id,
        released_at=oc.released_at,
        bid_id=oc.bid_id,
    )
    server_bid = ServerBid(
        site_id=oc.site_id,
        bid_id=oc.bid_id,
        expected_completion=oc.promised_completion,
        expected_price=oc.agreed_price,
        expected_slack=0.0,
    )
    contract = Contract(bid, server_bid, signed_at=oc.signed_at)
    # __init__ drew a fresh id; restore the journaled identity so the
    # stitched settlement matches its award
    contract.contract_id = oc.contract_id
    contract.task_tid = oc.task_tid
    return contract


def apply_recovery(service, plan: RecoveryPlan, now: float) -> int:
    """Execute *plan* against a freshly built service at time *now*.

    Order matters: orphans die first (nothing may mutate contract state
    while we settle it), then open contracts settle as abandonments,
    then the books and dedup table are seeded, and finally the id
    counters are reserved past everything on the record.  Each step is
    journaled as a ``recovery`` record; returns the number of contracts
    re-settled.
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

    resettled = 0
    for oc in plan.open_contracts:
        contract = rebuild_contract(oc)
        release = oc.released_at if oc.released_at is not None else oc.signed_at
        price = contract.settle_abandoned(now, release=release)
        if oc.site_id in plan.books:
            plan.books[oc.site_id].revenue += price
        if flight is not None:
            flight.recovery(
                now,
                "resettle",
                contract_id=oc.contract_id,
                bid_id=oc.bid_id,
                site_id=oc.site_id,
                price=price,
            )
            flight.settlement(now, contract, "abandoned")
        resettled += 1

    for site in service.sites:
        # the drain-time site summary reconciles against every settlement
        # and award in the stitched journal, not only this process's
        carried = plan.books.get(site.site_id)
        if carried is not None:
            site.revenue += carried.revenue
            site.contracts_signed += carried.contracts
            site.quotes_issued += carried.quotes_issued
            site.quotes_declined += carried.quotes_declined
    for key, doc in plan.responses.items():
        service.restore_response(key, doc)

    reserve_bid_ids(plan.next_bid_id)
    reserve_contract_ids(plan.next_contract_id)
    reserve_task_ids(plan.next_task_tid)

    if flight is not None:
        flight.recovery(
            now,
            "resume",
            resettled=resettled,
            killed=len(killed),
            next_bid_id=plan.next_bid_id,
            next_contract_id=plan.next_contract_id,
        )
    return resettled
