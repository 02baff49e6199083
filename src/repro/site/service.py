"""The task-service site engine.

Event flow:

* ``submit(task)`` — runs admission control (if configured); accepted
  tasks enter the pending pool, or start at once on an idle site, and
  trigger a scheduling pass.
* scheduling pass — dispatches the highest-scored pending tasks onto
  free nodes; with preemption enabled, a pending task whose score beats
  a running task's score evicts it ("once the system starts a task, it
  runs to completion unless preemption is enabled and a higher-priority
  task arrives to preempt it", §4).
* a run's end — a completion credits the realized yield, a failure
  (crashed node, failed subprocess) goes to the restart policy; either
  way another pass follows.  Optionally, expired tasks (bounded
  penalties, value at the floor) are discarded, matching Millennium's
  free-discard semantics.

How a started task runs, and how its end comes back, is the one thing
that differs between the simulator and the live service, so it is the
one seam: the engine hands every started task to its *executor*
(``launch(task, now, on_exit) -> handle``, ``cancel(handle)``) and
takes the end back through :meth:`TaskServiceSite._on_exit`.
:class:`KernelExecutor` is the simulator's: one completion event.

All scoring is vectorized over the pending pool's columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.instrument import Observability

from repro.errors import SchedulingError
from repro.scheduling.base import SchedulingHeuristic, decay_horizons
from repro.scheduling.pool import PendingPool
from repro.sim.clock import Clock, SimClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.site.accounting import YieldLedger
from repro.site.admission import AdmissionDecision
from repro.site.processors import ProcessorPool
from repro.tasks.task import Task

#: Relative margin a pending task's score must exceed a running task's
#: score by to trigger preemption — prevents swap thrash on ties.
_PREEMPT_EPS = 1e-9


class KernelExecutor:
    """Runs a started task as one completion event on the DES kernel."""

    def __init__(self, sim: Simulator, site_id: str) -> None:
        self.sim = sim
        self.site_id = site_id

    def launch(self, task: Task, now: float, on_exit: Callable[..., Any]) -> Event:
        return self.sim.schedule_at(
            now + task.remaining, on_exit, task, tag=f"{self.site_id}:complete:{task.tid}"
        )

    def cancel(self, handle: Event) -> None:
        self.sim.cancel(handle)


class TaskServiceSite:
    """A grid site selling a batch task service.

    Parameters
    ----------
    sim:
        The simulation kernel the site lives on, or ``None`` for a site
        hosted elsewhere, which then brings its own *clock* and
        *executor*.
    processors:
        Number of interchangeable nodes.
    heuristic:
        Scheduling heuristic ordering the pending pool.
    admission:
        Optional admission policy (an object with
        ``evaluate(site, task) -> AdmissionDecision``); ``None`` accepts
        every task (the Section 5 "must run all tasks" mode).
    preemption:
        Allow running tasks to be preempted by higher-scored arrivals.
    discard_expired:
        Cancel queued tasks whose value function has hit its floor
        (bounded penalties only) instead of ever running them.
    restart_policy:
        The fate of a task whose run died under it — a crashed node, a
        failed subprocess (an object with
        ``on_crash(task, now) -> CrashOutcome``, see
        :mod:`repro.faults.restart`).  ``None`` defaults to
        requeue-from-scratch on the first failure that needs it; sites
        never exposed to faults never touch this path.
    obs:
        Optional :class:`~repro.obs.instrument.Observability` — the one
        channel the engine reports what it did through (task lifecycle
        spans, site metrics).  ``None`` (the default) publishes nothing;
        every hook is guarded by one ``is not None`` check, and
        instruments never touch the clock or any RNG, so an attached
        observer cannot change results.
    clock:
        Where the engine reads "now" from (:class:`~repro.sim.clock.Clock`).
        Defaults to a :class:`~repro.sim.clock.SimClock` over *sim* —
        exactly the kernel clock, bit for bit.
    executor:
        How a started task runs: ``launch(task, now, on_exit)`` returns
        a handle, ``cancel(handle)`` takes the run back, and the run's
        end is reported as ``on_exit(task)`` or, when it died,
        ``on_exit(task, ok=False)``.  Defaults to a
        :class:`KernelExecutor` over *sim*.
    """

    def __init__(
        self,
        sim: Optional[Simulator],
        processors: int,
        heuristic: SchedulingHeuristic,
        admission=None,
        preemption: bool = False,
        discard_expired: bool = False,
        site_id: str = "site",
        ledger: Optional[YieldLedger] = None,
        restart_policy=None,
        obs: "Optional[Observability]" = None,
        clock: Optional[Clock] = None,
        executor=None,
    ) -> None:
        if sim is None and (clock is None or executor is None):
            raise SchedulingError(
                "a site without a simulation kernel needs its own clock and executor"
            )
        self.sim = sim
        self.clock: Clock = SimClock(sim) if clock is None else clock
        self.executor = KernelExecutor(sim, site_id) if executor is None else executor
        self.site_id = site_id
        self.heuristic = heuristic
        self.admission = admission
        self.preemption = preemption
        self.discard_expired = discard_expired
        self.restart_policy = restart_policy
        self.obs = obs
        self.processors = ProcessorPool(processors)
        self.pool = PendingPool()
        self.ledger = ledger if ledger is not None else YieldLedger()
        self._runs: dict[int, Any] = {}  # tid -> the executor's handle
        #: callbacks invoked with each task that reaches COMPLETED or
        #: CANCELLED — the market layer settles contracts through these
        self.finish_listeners: list = []
        #: called as fn(task, outcome) when a crash kills a running task —
        #: how fault books close.  Neither list is telemetry: what the
        #: site did is reported through ``obs`` and nowhere else
        self.crash_listeners: list = []

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(self, task: Task, force: bool = False) -> Optional[AdmissionDecision]:
        """Offer *task* to the site at the current simulated time.

        Returns the admission decision (None when the site runs without
        admission control and accepted unconditionally).  With
        ``force=True`` admission control is bypassed — used by the market
        layer when a contract has already been negotiated.
        """
        now = self.clock.now
        if task.arrival > now + 1e-9:
            raise SchedulingError(
                f"task {task.tid} submitted at {now} before its arrival {task.arrival}"
            )
        if task.demand > self.processors.count:
            raise SchedulingError(
                f"task {task.tid} demands {task.demand} nodes; the site has "
                f"{self.processors.count}"
            )
        if task.demand > 1 and self.preemption:
            raise SchedulingError(
                "preemption of gang-scheduled (multi-node) tasks is not "
                "supported; disable preemption or use single-node tasks"
            )
        task.submit()
        self.ledger.note_submission(task, now)
        if self.obs is not None:
            self.obs.task_submitted(task, now)

        decision: Optional[AdmissionDecision] = None
        if self.admission is not None and not force:
            decision = self.admission.evaluate(self, task)
            if not decision.accept:
                task.reject(now)
                self.ledger.note_reject(task, now)
                if self.obs is not None:
                    self.obs.task_rejected(task, decision, now)
                return decision

        task.accept()
        self.ledger.note_accept(task)
        if self.obs is not None:
            self.obs.task_admitted(task, decision, now)
        # an idle site starts the task at once: with nothing queued the
        # pass would take this one row straight back out, unless it first
        # discards expired rows (this task may be one)
        if (
            not self.pool
            and not self.discard_expired
            and task.demand <= self.processors.free_count
        ):
            self._start(task)
        else:
            self.pool.add(task)
        self._schedule_pass()
        return decision

    # ------------------------------------------------------------------
    # Scheduling pass
    # ------------------------------------------------------------------
    def _schedule_pass(self) -> None:
        now = self.clock.now
        if self.discard_expired:
            self._discard_expired(now)
        # Fill idle nodes greedily by score.  Gang-scheduled tasks that do
        # not fit the current free set are skipped in favour of the next
        # fitting task — EASY backfilling without reservations (the §4
        # "common backfilling algorithms"; wide jobs can be delayed by a
        # stream of narrow ones, a documented simplification).
        while self.pool and (free := self.processors.free_count) > 0:
            if len(self.pool) == 1:
                # nothing to rank: a lone task starts if its gang fits
                if self.pool.task_at(0).demand > free:
                    break
                self._start(self.pool.remove_at(0))
                continue
            scores = self.heuristic.scores(self.pool.columns(), now)
            if not self.pool.has_multi_node:
                # fast path: every task fits one free node
                self._start(self.pool.remove_at(int(np.argmax(scores))))
                continue
            order = np.argsort(-scores, kind="stable")
            for index in order:
                if self.pool.task_at(int(index)).demand <= free:
                    self._start(self.pool.remove_at(int(index)))
                    break
            else:
                break  # nothing pending fits the free nodes
        if self.preemption:
            self._preemption_pass()
        if self.obs is not None:
            self.obs.queue_depth(
                self.site_id, len(self.pool), self.processors.busy_count, now
            )

    def _start(self, task: Task) -> None:
        now = self.clock.now
        task.start(now)
        self.processors.assign(task, now)
        self._runs[task.tid] = self.executor.launch(task, now, self._on_exit)
        if self.obs is not None:
            self.obs.task_started(
                task, now, self.site_id, self.processors.node_ids_of(task)
            )

    def _on_exit(self, task: Task, ok: bool = True):
        """The run of *task* ended: it finished, or (``ok=False``) died.

        A run that died — its node crashed, its subprocess failed — is
        the restart policy's call: requeue from scratch or breach the
        contract; the ledger records the crash either way.  Returns the
        policy's
        :class:`~repro.faults.restart.CrashOutcome` (``None`` for a
        completion).
        """
        now = self.clock.now
        self._runs.pop(task.tid, None)
        self.processors.vacate(task, now)
        outcome = None
        if ok:
            task.complete(now)
            self.ledger.note_completion(task)
            if self.obs is not None:
                self.obs.task_completed(task, now)
            for listener in self.finish_listeners:
                listener(task)
        else:
            self.ledger.note_crash(task)
            if self.restart_policy is None:
                from repro.faults.restart import RequeueRestart

                self.restart_policy = RequeueRestart()
            outcome = self.restart_policy.on_crash(task, now)
            if outcome.requeued:
                self.pool.add(task)
                self.ledger.note_restart(task)
                if self.obs is not None:
                    self.obs.task_restarted(task, now, requeued=True)
            else:
                self.ledger.note_breach(task, outcome.penalty)
                if self.obs is not None:
                    self.obs.task_restarted(task, now, requeued=False)
                    self.obs.task_breached(task, now, outcome.penalty)
                for listener in self.finish_listeners:
                    listener(task)
            for listener in self.crash_listeners:
                listener(task, outcome)
        self._schedule_pass()
        return outcome

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _preemption_pass(self) -> None:
        """Swap queued tasks onto nodes while they outscore running tasks.

        Pending and running tasks are scored in one combined column set:
        heuristics whose scores depend on the competitor population
        (FirstReward's opportunity cost) are only comparable on a shared
        population.  A swap moves one task each way, so the union — and
        with it every score — is fixed for the whole pass: it is scored
        once, and the swaps are replayed on that one vector, which makes
        the pass a top-k selection that provably terminates on finite
        scores (:mod:`repro.domain`); any other vector is refused first.
        """
        pool = self.pool
        processors = self.processors
        if not pool or not processors.busy_count:
            return
        now = self.clock.now
        n_pending = len(pool)
        # an owned copy: the swaps below edit it in place, and the union
        # view it was scored from is dead after the first pool.add
        scores = np.array(self.heuristic.scores(processors.union(pool, now), now))
        if not np.isfinite(scores).all():
            raise SchedulingError(f"{self.heuristic.name} scored the preemption union non-finite")
        pending_scores = scores[:n_pending]  # pool order
        running_scores = scores[n_pending:].tolist()  # slot order
        # the processors' own occupant list: each swap vacates the victim's
        # node, the one free node, and the winner takes it, so the list
        # stays in slot order, which breaks ties, with the winner where
        # the victim was
        running = processors.running
        # on fixed finite scores the worst running score only rises, so an
        # evicted task never returns: at most n_pending swaps
        while True:
            best_pending = int(pending_scores.argmax())
            victim_score = min(running_scores)
            worst_running = running_scores.index(victim_score)
            winner_score = pending_scores.item(best_pending)
            if winner_score <= victim_score + _PREEMPT_EPS * (1.0 + abs(victim_score)):
                return
            self._preempt(running[worst_running])
            # the vacated node goes to the pending task chosen above (the
            # preempted task was appended after it, so the index is stable)
            self._start(pool.remove_at(best_pending))
            # the scores move with the tasks: the victim is now the pool's
            # last row and the winner holds the victim's node
            pending_scores[best_pending:-1] = pending_scores[best_pending + 1 :]
            pending_scores[-1] = victim_score
            running_scores[worst_running] = winner_score

    def _preempt(self, task: Task) -> None:
        now = self.clock.now
        self.executor.cancel(self._runs.pop(task.tid))
        self.processors.vacate(task, now)
        task.preempt(now)
        self.ledger.note_preempt(task)
        self.pool.add(task)
        if self.obs is not None:
            self.obs.task_preempted(task, now)

    # ------------------------------------------------------------------
    # Node failure / repair (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int):
        """Take node *node_id* down, killing whatever ran on it.

        A crash on a gang-scheduled task's node kills the whole task
        (gangs run in lockstep); its run is taken back from the executor
        and ends as a failed one (:meth:`_on_exit`).  Returns the
        :class:`~repro.faults.restart.CrashOutcome` (``None`` when the
        node was idle, unknown, or already down).
        """
        victim = self.processors.fail(node_id)
        if victim is None:
            return None
        self.executor.cancel(self._runs[victim.tid])
        # capacity shrank, but the kill may still have freed a wide
        # task's other nodes for narrower pending work: _on_exit ends in
        # a scheduling pass
        return self._on_exit(victim, ok=False)

    def repair_node(self, node_id: int) -> bool:
        """Bring node *node_id* back up and offer it to the queue."""
        repaired = self.processors.repair(node_id)
        if repaired:
            self._schedule_pass()
        return repaired

    # ------------------------------------------------------------------
    # Expired-task discard (bounded penalties)
    # ------------------------------------------------------------------
    def _discard_expired(self, now: float) -> None:
        if not self.pool:
            return
        cols = self.pool.columns()
        if cols.never_expires:
            return
        horizons = decay_horizons(cols, now)
        expired = (horizons <= 0.0) & np.isfinite(cols.bound) & (cols.decay > 0.0)
        if not expired.any():
            return
        # collect first: removing mutates column indices
        victims = [self.pool.task_at(i) for i in np.nonzero(expired)[0]]
        for task in victims:
            self.pool.remove(task)
            task.cancel(now)
            self.ledger.note_cancel(task)
            if self.obs is not None:
                self.obs.task_aborted(task, now)
            for listener in self.finish_listeners:
                listener(task)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self.pool)

    @property
    def running_count(self) -> int:
        return self.processors.busy_count

    def all_work_done(self) -> bool:
        return not self.pool and self.processors.busy_count == 0

    def __repr__(self) -> str:
        return (
            f"<TaskServiceSite {self.site_id!r} heuristic={self.heuristic.name} "
            f"queue={self.queue_length} running={self.running_count}>"
        )
