"""Tests for the Observability facade: lifecycle trees, run bracketing,
the ambient attachment, and the market/site boundary link."""

from repro.market import MarketSite, run_market
from repro.obs import Observability, current, observing
from repro.scheduling import FirstPrice
from repro.sim import Simulator
from repro.site import SlackAdmission
from repro.site.driver import simulate_site
from repro.workload import economy_spec, generate_trace, millennium_spec


def _observed_run(obs, n_jobs=60, mix=millennium_spec, **site_kwargs):
    spec = mix(n_jobs=n_jobs)
    trace = generate_trace(spec, seed=0)
    return simulate_site(
        trace,
        FirstPrice(),
        processors=spec.processors,
        keep_records=False,
        obs=obs,
        **site_kwargs,
    )


class TestLifecycleTrees:
    def test_complete_tree_for_every_task(self):
        obs = Observability()
        _observed_run(obs)
        roots = [s for s in obs.spans.finished if s.name.startswith("task:")]
        assert roots, "no task root spans recorded"
        for root in roots:
            children = [s for s in obs.spans.finished if s.parent_id == root.span_id]
            names = {c.name for c in children}
            assert "submitted" in names
            assert root.args.get("outcome") in ("completed", "aborted", "rejected")
            # every accepted task queued at least once before finishing
            if root.args["outcome"] == "completed":
                assert "queued" in names and "running" in names

    def test_preemption_appears_inside_the_tree(self):
        obs = Observability()
        # millennium burst mix with preemption: bursts force preemptions
        _observed_run(obs, n_jobs=120, preemption=True)
        preempted = [s for s in obs.spans.finished if s.name == "preempted"]
        assert preempted, "expected at least one preemption in a burst mix"
        mark = preempted[0]
        root = next(
            s for s in obs.spans.finished if s.span_id == mark.parent_id
        )
        names = [s.name for s in obs.spans.finished if s.parent_id == root.span_id]
        # preemption splits execution: two queued and two running segments
        assert names.count("queued") >= 2
        assert names.count("running") >= 2
        assert root.args["outcome"] == "completed"
        # and the registry agrees
        assert obs.registry.counter("tasks.preemptions").value >= 1

    def test_spans_disabled_leaves_metrics_working(self):
        obs = Observability(spans=False)
        _observed_run(obs)
        assert obs.spans is None
        assert obs.registry.counter("tasks.completed").value > 0


class TestRunBracketing:
    def test_each_run_summary_and_span_attribution(self):
        obs = Observability()
        _observed_run(obs)
        _observed_run(obs)
        assert obs.run_index == 1
        assert len(obs.runs) == 2
        for row in obs.runs:
            assert row["heuristic"] == "firstprice"
            assert row["tasks"] > 0 and row["wall_s"] > 0
        assert {s.run for s in obs.spans.finished} == {0, 1}

    def test_end_run_truncates_stragglers(self):
        obs = Observability()
        from repro.tasks import Task
        from repro.valuefn.linear import LinearDecayValueFunction

        task = Task(0.0, 5.0, LinearDecayValueFunction(10.0, 0.1, 0.0))
        obs.begin_run("manual")
        obs.task_submitted(task, 0.0)
        obs.end_run(3.0)
        roots = [s for s in obs.spans.finished if s.name == f"task:{task.tid}"]
        assert len(roots) == 1
        assert roots[0].closed and roots[0].args.get("truncated") is True


class TestAmbientAttachment:
    def test_observing_scopes_the_attachment(self):
        obs = Observability(spans=False)
        assert current() is None
        with observing(obs):
            assert current() is obs
            with observing(None):  # transparent no-op
                assert current() is obs
        assert current() is None

    def test_driver_picks_up_ambient_observer(self):
        obs = Observability()
        with observing(obs):
            _observed_run(None)
        assert obs.registry.counter("tasks.completed").value > 0

    def test_explicit_argument_beats_ambient(self):
        ambient = Observability()
        explicit = Observability()
        with observing(ambient):
            _observed_run(explicit)
        assert explicit.run_index == 0
        assert ambient.run_index == -1


class TestMarketBoundary:
    """A simulated market is observed like the live one: ``Broker.negotiate``
    calls the negotiation hooks of the observer its sites report to, so a
    plain ``run_market`` leaves one ``negotiation:<id>`` span per bid."""

    SITES = 3

    def _market(self):
        obs = Observability()
        sim = Simulator()
        sites = [
            MarketSite(
                sim,
                site_id=f"s{i}",
                processors=1,
                heuristic=FirstPrice(),
                admission=SlackAdmission(threshold=50.0, discount_rate=0.0),
                obs=obs,
            )
            for i in range(self.SITES)
        ]
        trace = generate_trace(economy_spec(n_jobs=60, load_factor=2.0), seed=0)
        obs.begin_run("market")
        result = run_market(trace, sites)
        obs.end_run(sim.now)
        return obs, result

    def _negotiation_spans(self, obs, result):
        """The market's span per bid, by the round's ordinal."""
        spans = {
            s.name: s
            for s in obs.spans.finished
            if s.category == "market" and s.name.startswith("negotiation:")
        }
        assert len(spans) == len(result.outcomes)
        for span in spans.values():
            # one quoted/declined instant per site asked
            assert sum(s.parent_id == span.span_id for s in obs.spans.finished) == self.SITES
        return [
            (spans[f"negotiation:{nid}"], outcome)
            for nid, outcome in enumerate(result.outcomes)
        ]

    def test_negotiation_span_links_under_task_root(self):
        obs, result = self._market()
        roots = {s.name: s for s in obs.spans.finished if s.name.startswith("task:")}
        contracted = [
            (span, outcome)
            for span, outcome in self._negotiation_spans(obs, result)
            if outcome.accepted
        ]
        assert contracted, "the scenario is vacuous"
        for span, outcome in contracted:
            tid = outcome.contract.task_tid
            assert span.args == {"outcome": "contracted", "site": outcome.winner.site_id}
            assert span.task_id == tid
            # the negotiation hangs under the task's lifecycle tree
            assert span.parent_id == roots[f"task:{tid}"].span_id

    def test_failed_negotiation_closes_unlinked(self):
        obs, result = self._market()
        failed = [
            span
            for span, outcome in self._negotiation_spans(obs, result)
            if not outcome.accepted
        ]
        assert failed, "the scenario is vacuous"
        for span in failed:
            assert span.args == {"outcome": "failed"}
            assert span.parent_id is None and span.task_id is None

    def test_market_counters_match_the_outcomes(self):
        obs, result = self._market()
        counter = obs.registry.counter
        assert counter("market.negotiations").value == len(result.outcomes)
        assert counter("market.contracted").value == result.accepted
        assert counter("market.failed").value == result.rejected
        issued = sum(site.quotes_issued for site in result.sites)
        declined = sum(site.quotes_declined for site in result.sites)
        assert counter("market.quotes").value == issued > 0
        assert counter("market.quotes.declined").value == declined > 0
        assert issued + declined == self.SITES * len(result.outcomes)


class TestPerSiteGauges:
    """``site.queue_depth`` / ``site.busy_nodes`` are one series per site:
    two sites of a market sharing an observer used to write the same two
    gauges, whose mean was neither site's level nor the market's."""

    def test_two_sites_of_a_market_never_share_a_series(self):
        from repro.market import run_market

        obs = Observability(spans=False)
        sim = Simulator()
        slots = {"small": 1, "big": 8}
        sites = [
            MarketSite(sim, site_id, count, FirstPrice(), obs=obs)
            for site_id, count in slots.items()
        ]
        peak_queue = dict.fromkeys(slots, 0)
        for site in sites:
            def watched(engine=site.engine, schedule_pass=site.engine._schedule_pass):
                schedule_pass()
                peak_queue[engine.site_id] = max(
                    peak_queue[engine.site_id], engine.queue_length
                )
            site.engine._schedule_pass = watched
        trace = generate_trace(economy_spec(n_jobs=400, load_factor=2.0, processors=9), seed=2)
        run_market(trace, sites)

        gauges = obs.registry.snapshot()
        assert "site.queue_depth" not in gauges and "site.busy_nodes" not in gauges
        for site_id, count in slots.items():
            assert gauges[f"site.busy_nodes.{site_id}"]["max"] == count
            assert gauges[f"site.busy_nodes.{site_id}"]["mean"] <= count
            assert gauges[f"site.queue_depth.{site_id}"]["max"] == peak_queue[site_id] > 0


class TestFaultHooks:
    def test_crash_restart_breach_instrumented(self):
        from repro.faults import FaultSpec

        obs = Observability()
        spec = economy_spec(n_jobs=80, load_factor=1.0)
        trace = generate_trace(spec, seed=0)
        simulate_site(
            trace,
            FirstPrice(),
            processors=spec.processors,
            keep_records=False,
            faults=FaultSpec(mttf=150.0, mttr=20.0),
            fault_seed=1,
            obs=obs,
        )
        reg = obs.registry
        assert reg.counter("faults.crashes").value > 0
        assert any(s.name == "crash" for s in obs.spans.finished), "no node-crash instants recorded"
        assert reg.time_weighted("faults.nodes_down").writes > 0
        # a crash either requeues (restart) or abandons (breach)
        crashed = reg.counter("tasks.crashed").value
        if crashed:
            assert (
                reg.counter("tasks.restarts").value
                + reg.counter("tasks.breached").value
                > 0
            )
        assert obs.runs[0]["crashes"] > 0
