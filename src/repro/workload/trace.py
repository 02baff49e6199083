"""Trace container: the generated task mix as structure-of-arrays.

A :class:`Trace` holds parallel NumPy columns (arrival, runtime, value,
decay, bound) — the layout the vectorized site engine consumes directly —
plus materialization into :class:`~repro.tasks.task.Task` objects,
slicing, and summary statistics used by tests and the experiment
harness.  The trace *file* format is SWF (:mod:`repro.workload.swf`).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Union

import numpy as np

from repro.errors import WorkloadError
from repro.tasks.task import Task
from repro.valuefn.linear import LinearDecayValueFunction


class Trace:
    """An immutable sequence of task descriptors in arrival order.

    ``bound`` uses ``inf`` for unbounded penalties so every column is a
    plain float64 array.  ``estimate`` is the *declared* runtime the
    scheduler sees; it defaults to the true runtime (the paper's
    accurate-prediction assumption) and differs only under the runtime
    misestimation extension.
    """

    __slots__ = ("arrival", "runtime", "value", "decay", "bound", "estimate", "name")

    def __init__(
        self,
        arrival: np.ndarray,
        runtime: np.ndarray,
        value: np.ndarray,
        decay: np.ndarray,
        bound: np.ndarray,
        estimate: Optional[np.ndarray] = None,
        name: str = "trace",
    ) -> None:
        if estimate is None:
            estimate = np.array(runtime, dtype=float, copy=True)
        cols = [
            np.asarray(c, dtype=float)
            for c in (arrival, runtime, value, decay, bound, estimate)
        ]
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise WorkloadError("trace columns must have equal length")
        arrival, runtime, value, decay, bound, estimate = cols
        if n and not np.all(np.diff(arrival) >= 0):
            raise WorkloadError("arrivals must be non-decreasing")
        if np.any(runtime <= 0):
            raise WorkloadError("runtimes must be > 0")
        if np.any(estimate <= 0):
            raise WorkloadError("runtime estimates must be > 0")
        if np.any(decay < 0):
            raise WorkloadError("decay rates must be >= 0")
        if np.any(np.isnan(value)):
            raise WorkloadError("values must not be NaN")
        finite_bound = np.isfinite(bound)
        if np.any(bound[finite_bound] < -value[finite_bound]):
            raise WorkloadError("penalty bounds must not put the floor above the value")
        for c in (arrival, runtime, value, decay, bound, estimate):
            c.setflags(write=False)
        self.arrival = arrival
        self.runtime = runtime
        self.value = value
        self.decay = decay
        self.bound = bound
        self.estimate = estimate
        self.name = name

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrival)

    def __getitem__(self, index: Union[int, slice]) -> Union[tuple, "Trace"]:
        if isinstance(index, slice):
            return Trace(
                self.arrival[index],
                self.runtime[index],
                self.value[index],
                self.decay[index],
                self.bound[index],
                self.estimate[index],
                name=f"{self.name}[{index.start}:{index.stop}]",
            )
        return (
            self.arrival[index],
            self.runtime[index],
            self.value[index],
            self.decay[index],
            self.bound[index],
            self.estimate[index],
        )

    def to_tasks(self) -> list[Task]:
        """Materialize Task objects (ids follow trace order)."""
        # each column read once into Python floats, not numpy scalars
        # converted one element at a time
        return [
            Task(
                arrival,
                runtime,
                LinearDecayValueFunction(value, decay, None if math.isinf(bound) else bound),
                estimate=estimate,
            )
            for arrival, runtime, value, decay, bound, estimate in zip(
                self.arrival.tolist(),
                self.runtime.tolist(),
                self.value.tolist(),
                self.decay.tolist(),
                self.bound.tolist(),
                self.estimate.tolist(),
            )
        ]

    def iter_rows(self) -> Iterator[tuple[float, float, float, float, float, float]]:
        for i in range(len(self)):
            yield self[i]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def total_work(self) -> float:
        return float(self.runtime.sum())

    @property
    def span(self) -> float:
        """Arrival span (first arrival to last arrival)."""
        if len(self) == 0:
            return 0.0
        return float(self.arrival[-1] - self.arrival[0])

    def value_skew_realized(self) -> float:
        """Realized ratio of mean high-class to low-class unit value.

        Classes are recovered by thresholding unit values at the overall
        geometric midpoint; exact recovery is not needed — tests only
        check this tracks the configured skew.
        """
        unit = self.value / self.runtime
        if len(unit) < 2:
            return 1.0
        lo, hi = float(unit.min()), float(unit.max())
        if hi <= lo * 1.0000001:
            return 1.0
        threshold = math.sqrt(lo * hi)
        high = unit[unit > threshold]
        low = unit[unit <= threshold]
        if len(high) == 0 or len(low) == 0:
            return 1.0
        return float(high.mean() / low.mean())

    def summary(self) -> dict:
        return {
            "name": self.name,
            "n": len(self),
            "total_work": self.total_work,
            "span": self.span,
            "mean_runtime": float(self.runtime.mean()) if len(self) else 0.0,
            "mean_value": float(self.value.mean()) if len(self) else 0.0,
            "mean_decay": float(self.decay.mean()) if len(self) else 0.0,
            "bounded_fraction": float(np.isfinite(self.bound).mean()) if len(self) else 0.0,
        }

    @classmethod
    def empty(cls, name: str = "empty") -> "Trace":
        z = np.empty(0)
        return cls(z, z, z, z, z, z, name=name)

    def __repr__(self) -> str:
        return f"<Trace {self.name!r} n={len(self)} work={self.total_work:g}>"
