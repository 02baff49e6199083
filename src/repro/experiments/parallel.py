"""Parallel experiment execution engine: deterministic cell fan-out.

Every experiment in this repo is an embarrassingly parallel grid of
independent seeded simulations — (seed × load × heuristic) cells with no
shared state.  This module runs those cells through a
:class:`CellExecutor` that is either *inline* (``workers=1``, the
default: each cell executes immediately at submission, exactly the
serial program order) or backed by a :class:`~concurrent.futures.\
ProcessPoolExecutor` fanning cells across worker processes.

**Determinism contract.**  Parallel execution must be invisible in the
output: the result JSON for ``--workers N`` is byte-identical to the
serial run.  Three properties guarantee it:

1. every cell is a pure function of picklable inputs (workload spec,
   heuristic/admission *descriptors*, seed) — no ambient state crosses
   the process boundary;
2. each cell's arithmetic is identical in both modes — the inline path
   runs the very same module-level cell functions the workers import;
3. experiments assemble rows by iterating their grid in canonical
   (submission) order and reading each cell's handle, so completion
   order never leaks into row order.

Heuristics and admission policies are described by ``(name, params)``
descriptors rather than factories because closures do not pickle; the
descriptors resolve through :mod:`repro.scheduling.registry` on
whichever side of the process boundary runs the cell.

**Observability.**  Live telemetry attachments record through in-process
hooks; a worker process's spans and metrics would die with the worker
and silently vanish from the parent's exporters.  Creating a multi-worker
executor while an observability attachment is active (ambient
:func:`repro.obs.observing` or the CLI's ``--trace-out``/
``--metrics-out``) is therefore a hard error — run serially for traces,
or drop the telemetry flags to fan out.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError

#: Environment variable giving the default worker count for every
#: experiment run (the CLI ``--workers`` flag overrides it).
WORKERS_ENV = "REPRO_WORKERS"

#: Descriptor for a heuristic or admission policy: (registry name, params).
Descriptor = tuple


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit count, else ``$REPRO_WORKERS``, else 1 (serial)."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ExperimentError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ExperimentError(f"worker count must be >= 1, got {workers}")
    return int(workers)


def _require_no_observability(workers: int) -> None:
    from repro.obs.instrument import current

    if current() is not None:
        raise ExperimentError(
            f"live observability cannot cross process boundaries: an "
            f"attachment is active but workers={workers} would run cells "
            f"in worker processes whose spans/metrics never reach the "
            f"parent's exporters. Run with --workers 1 (or unset "
            f"{WORKERS_ENV}), or drop --trace-out/--metrics-out."
        )


class CellHandle:
    """Deferred result of one submitted cell."""

    __slots__ = ("_value", "_future")

    def __init__(self, value=None, future=None) -> None:
        self._value = value
        self._future = future

    def result(self):
        if self._future is not None:
            return self._future.result()
        return self._value


class FoldHandle:
    """Fold several cell handles into one value at resolution time."""

    __slots__ = ("_handles", "_fold")

    def __init__(self, handles: Sequence[CellHandle], fold: Callable) -> None:
        self._handles = list(handles)
        self._fold = fold

    def result(self):
        return self._fold([h.result() for h in self._handles])


def _mean_scalar(values: list) -> float:
    return float(np.mean(values))


def mean_rows(rows: Sequence[dict]) -> dict:
    """Column-wise mean of per-seed row dicts (shared by faults/resilience)."""
    return {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}


def mean_of(handles: Sequence[CellHandle]) -> FoldHandle:
    """Handle resolving to the float mean of *handles* (per-seed scalars)."""
    return FoldHandle(handles, _mean_scalar)


def mean_rows_of(handles: Sequence[CellHandle]) -> FoldHandle:
    """Handle resolving to the column-wise mean of per-seed row dicts."""
    return FoldHandle(handles, mean_rows)


class CellExecutor:
    """Runs experiment cells inline or across a process pool.

    ``workers`` of ``None`` consults ``$REPRO_WORKERS``; 1 means inline
    (cells execute immediately at ``submit``, preserving the serial
    program order bit for bit); >1 fans out over that many processes.

    Use as a context manager so the pool is torn down even when a cell
    raises::

        with CellExecutor(workers) as ex:
            handles = [ex.submit(cell_fn, ...) for ...]
            values = [h.result() for h in handles]
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        if self.workers > 1:
            _require_no_observability(self.workers)
            self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, fn: Callable, /, *args, **kwargs) -> CellHandle:
        """Submit ``fn(*args, **kwargs)``; inline mode runs it right now."""
        if self._pool is None:
            return CellHandle(value=fn(*args, **kwargs))
        return CellHandle(future=self._pool.submit(fn, *args, **kwargs))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Descriptor resolution + the shared single-site cell
# ----------------------------------------------------------------------

def build_heuristic(descriptor: Descriptor):
    """Resolve a ``(name, params)`` heuristic descriptor via the registry.

    ``("survival", {"inner": descriptor, "mttf": m})`` names the
    failure-aware wrapper: the inner heuristic's scores discounted by an
    exponential node lifetime of mean *m*.
    """
    from repro.scheduling.registry import make_heuristic

    name, params = descriptor
    if name == "survival":
        from repro.faults.survival import ExponentialSurvival
        from repro.scheduling.survival import SurvivalDiscount

        return SurvivalDiscount(
            build_heuristic(params["inner"]), ExponentialSurvival(params["mttf"])
        )
    return make_heuristic(name, **params)


def build_admission(descriptor: Optional[Descriptor]):
    """Resolve an admission descriptor (``None`` = no admission control)."""
    if descriptor is None:
        return None
    name, params = descriptor
    if name != "slack":
        raise ExperimentError(f"unknown admission policy {name!r}")
    from repro.site.admission import SlackAdmission

    return SlackAdmission(**params)


def run_site_cell(
    spec,
    heuristic: Descriptor,
    seed: int,
    metric: str = "total_yield",
    admission: Optional[Descriptor] = None,
    **site_kwargs,
) -> float:
    """The universal figure cell: fresh seeded trace, one site
    simulation, one scalar metric."""
    from repro.site.driver import simulate_site
    from repro.workload.generator import generate_trace

    trace = generate_trace(spec, seed=seed)
    result = simulate_site(
        trace,
        build_heuristic(heuristic),
        processors=spec.processors,
        admission=build_admission(admission),
        keep_records=False,
        **site_kwargs,
    )
    return getattr(result, metric)


def submit_mean_yield(
    ex: CellExecutor,
    spec,
    heuristic: Descriptor,
    seeds: Sequence[int],
    metric: str = "total_yield",
    admission: Optional[Descriptor] = None,
    **site_kwargs,
) -> FoldHandle:
    """Fan one figure cell's seeds out through *ex*; resolves to the mean."""
    if not seeds:
        raise ExperimentError("at least one seed is required")
    return mean_of(
        [
            ex.submit(
                run_site_cell, spec, heuristic, seed, metric, admission, **site_kwargs
            )
            for seed in seeds
        ]
    )
