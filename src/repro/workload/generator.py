"""Trace generation: WorkloadSpec + seed → Trace.

Sampling is fully vectorized and reproducible: each quantity draws from
its own named random stream (``arrivals``, ``durations``, ``values``,
``decays``), so changing e.g. the decay model does not perturb the
arrival process of an otherwise-identical spec.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.sim.rng import RandomStreams
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace


def generate_trace(
    spec: WorkloadSpec,
    seed: Union[int, RandomStreams] = 0,
    name: Optional[str] = None,
) -> Trace:
    """Generate a task mix per §4.1 of the paper.

    Arrivals come in batches of ``spec.batch_size`` (16 for the
    Millennium mixes, 1 otherwise) separated by gaps drawn from the
    calibrated inter-arrival distribution; every job in a batch shares
    the batch's arrival time.  Values are ``unit_value · runtime`` with
    unit values drawn from the bimodal value classes; decay rates are
    drawn from the bimodal decay classes, independent of value ("decay
    rates are not correlated with value", §5.3).
    """
    streams = seed if isinstance(seed, RandomStreams) else RandomStreams(seed)
    n = spec.n_jobs

    # --- arrivals -------------------------------------------------------
    n_batches = -(-n // spec.batch_size)  # ceil division
    gaps = spec.interarrival_distribution().sample(streams.fresh("arrivals"), n_batches)
    batch_times = np.cumsum(gaps) - gaps[0]  # first batch arrives at t=0
    arrival = np.repeat(batch_times, spec.batch_size)[:n]

    # --- durations ------------------------------------------------------
    runtime = spec.duration.sample(streams.fresh("durations"), n)

    # --- values (bimodal unit value × runtime) ---------------------------
    unit_value, _ = spec.value.sample(streams.fresh("values"), n)
    value = unit_value * runtime

    # --- decay rates (bimodal, independent of value) ----------------------
    decay, _ = spec.decay.sample(streams.fresh("decays"), n)

    # --- penalty bounds ---------------------------------------------------
    bound = np.full(n, spec.bound_or_inf)

    # declared runtimes are the true ones: the paper's accurate-prediction
    # assumption (misestimation enters through Trace(estimate=) or SWF)
    return Trace(arrival, runtime, value, decay, bound, name=name or spec.name)
