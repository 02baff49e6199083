#!/usr/bin/env python
"""Extending the value model: piecewise-linear (variable-rate) functions.

§3 of the paper: "The framework can generalize to value functions that
decay at variable rates, but these complicate the problem significantly."
This example exercises that extension:

1. builds a grace-period value function (full value for a while, then a
   steep drop toward a bounded penalty),
2. compares it against the linear model on the same delays, and
3. schedules a small queue of mixed linear and piecewise tasks with the
   *generic* FirstPrice heuristic, which scores each task through the
   ValueFunction interface — the extension path outside the vectorized
   engine.

Run:  python examples/custom_value_functions.py
"""

from __future__ import annotations

from repro import LinearDecayValueFunction, PiecewiseLinearValueFunction, Task
from repro.metrics.tables import format_table
from repro.scheduling.generic import GenericFirstPrice, simulate_generic


def show_value_functions() -> None:
    linear = LinearDecayValueFunction(value=100.0, decay=2.0, penalty_bound=20.0)
    graceful = PiecewiseLinearValueFunction(
        [(0, 100), (20, 100), (40, 0), (60, -20)]  # 20-unit grace period
    )
    rows = []
    for delay in (0.0, 10.0, 20.0, 30.0, 40.0, 60.0, 100.0):
        rows.append(
            {
                "delay": delay,
                "linear_yield": linear.yield_at(delay),
                "graceful_yield": graceful.yield_at(delay),
                "graceful_decay_rate": graceful.decay_at(delay),
            }
        )
    print(format_table(rows, title="linear vs grace-period value functions"))
    print(f"graceful expires at delay {graceful.expiration_delay:g} "
          f"(floor {graceful.floor:g})\n")


def generic_greedy_schedule() -> None:
    """Greedy unit-gain scheduling for arbitrary value functions.

    The vectorized site engine requires linear functions; the generic
    task service runs the same FirstPrice rule against the abstract
    interface, one node, any mix of value models.
    """
    # four jobs released at t=0, mixing linear and piecewise values; the
    # first submission finds the node idle and starts at once, the rest
    # are ranked against each other at every completion
    jobs = {
        "report": Task(
            0.0, 10.0, PiecewiseLinearValueFunction([(0, 80), (5, 80), (25, 0)])
        ),
        "etl": Task(0.0, 30.0, LinearDecayValueFunction(90.0, 1.5, penalty_bound=0.0)),
        "backfill": Task(
            0.0, 50.0, LinearDecayValueFunction(60.0, 0.2, penalty_bound=0.0)
        ),
        "alert": Task(
            0.0, 5.0, PiecewiseLinearValueFunction([(0, 40), (10, -10), (30, -10)])
        ),
    }
    ledger = simulate_generic(list(jobs.values()), GenericFirstPrice(), processors=1)
    log = [
        {"job": name, "started": task.first_start, "earned": task.realized_yield}
        for name, task in sorted(jobs.items(), key=lambda item: item[1].first_start)
    ]
    print(format_table(log, title="generic greedy schedule (mixed value models)"))
    print(f"total earned: {ledger.total_yield:.1f}")


def main() -> None:
    show_value_functions()
    generic_greedy_schedule()


if __name__ == "__main__":
    main()
