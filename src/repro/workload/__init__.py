"""Synthetic workload generation (§4.1 of the paper).

The paper's traces are synthetic mixes "representative of real batch
workloads": exponentially (or, for the Millennium comparisons, normally)
distributed inter-arrival times and durations, with *bimodal* high/low
classes for unit value and decay rate parameterized by skew ratios, and a
*load factor* that fixes total requested work relative to capacity.

* :mod:`repro.workload.distributions` — exponential and normal.
* :mod:`repro.workload.spec` — declarative workload specifications,
  including the bimodal class model and load-factor calibration.
* :mod:`repro.workload.generator` — turns a spec + seed into a trace.
* :mod:`repro.workload.trace` — the trace container (SoA arrays +
  Task materialization + summary statistics).
* :mod:`repro.workload.swf` — the trace file format (Standard Workload
  Format, read and written).
* :mod:`repro.workload.millennium` — canned specs for the Millennium
  task mixes used in Figures 3–7.
"""

from repro.workload.distributions import (
    Distribution,
    ExponentialDist,
    NormalDist,
)
from repro.workload.generator import generate_trace
from repro.workload.millennium import millennium_spec, economy_spec
from repro.workload.spec import BimodalSpec, WorkloadSpec
from repro.workload.swf import dump_swf, load_swf, parse_swf, save_swf
from repro.workload.trace import Trace

__all__ = [
    "BimodalSpec",
    "Distribution",
    "ExponentialDist",
    "NormalDist",
    "Trace",
    "WorkloadSpec",
    "dump_swf",
    "economy_spec",
    "generate_trace",
    "load_swf",
    "millennium_spec",
    "parse_swf",
    "save_swf",
]
