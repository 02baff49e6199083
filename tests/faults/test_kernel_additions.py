"""Kernel-layer changes that rode along with the faults subsystem:
rich stale-cancel diagnostics and daemon sleeps (ported from the
generator-process layer to the kernel's coroutine driver; the rest of
the driver's contract is in ``tests/sim/test_coroutine.py``)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Coroutine, Simulator, Sleep


class TestCancelDiagnostics:
    def test_cancel_fired_event_names_the_event(self):
        sim = Simulator()
        event = sim.schedule_at(5.0, lambda: None, tag="doomed")
        sim.run()
        with pytest.raises(SimulationError) as exc:
            sim.cancel(event)
        message = str(exc.value)
        assert "fired" in message
        assert "'doomed'" in message
        assert f"seq={event.seq}" in message
        assert "t=5" in message
        assert "now=5" in message

    def test_cancel_cancelled_event_says_cancelled(self):
        sim = Simulator()
        event = sim.schedule_at(5.0, lambda: None, tag="twice")
        sim.cancel(event)
        with pytest.raises(SimulationError) as exc:
            sim.cancel(event)
        assert "was cancelled" in str(exc.value)
        assert "'twice'" in str(exc.value)

    def test_cancel_pending_event_still_works(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(5.0, fired.append, 1)
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestDaemonTimeouts:
    def test_daemon_timeout_does_not_keep_run_alive(self):
        sim = Simulator()
        reached = []

        async def proc():
            await Sleep(100.0, daemon=True)
            reached.append(sim.now)  # pragma: no cover - must not happen

        Coroutine(sim, proc())
        sim.run()
        assert sim.now == 0.0
        assert reached == []

    def test_daemon_timeout_fires_when_real_work_remains(self):
        sim = Simulator()
        reached = []

        async def proc():
            await Sleep(10.0, daemon=True)
            reached.append(sim.now)

        Coroutine(sim, proc())
        sim.schedule_at(50.0, lambda: None, tag="essential")
        sim.run()
        assert reached == [10.0]

    def test_essential_timeout_keeps_run_alive(self):
        sim = Simulator()
        reached = []

        async def proc():
            await Sleep(100.0)
            reached.append(sim.now)

        Coroutine(sim, proc())
        sim.run()
        assert reached == [100.0]

    def test_daemon_process_does_not_extend_the_run(self):
        """A daemon coroutine alone never advances the clock: the kernel
        fires daemons at the final instant (so the start lands at t=0)
        but a later daemon sleep cannot keep the run alive."""
        sim = Simulator()
        seen = []

        async def proc():
            seen.append(sim.now)
            await Sleep(5.0, daemon=True)
            seen.append(sim.now)  # pragma: no cover - must not happen

        Coroutine(sim, proc(), daemon=True)
        sim.run()
        assert seen == [0.0]
        assert sim.now == 0.0

    def test_mixed_daemon_and_essential_interleave(self):
        sim = Simulator()
        ticks = []

        async def daemon_loop():
            while True:
                await Sleep(3.0, daemon=True)
                ticks.append(sim.now)

        Coroutine(sim, daemon_loop())
        sim.schedule_at(10.0, lambda: None, tag="essential")
        sim.run()
        assert ticks == [3.0, 6.0, 9.0]
