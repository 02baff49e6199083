"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An invalid operation on the simulation kernel.

    Raised e.g. when scheduling an event in the past, cancelling an event
    that already fired, or running a simulator that has been finalized.
    """


class ValueFunctionError(ReproError):
    """An ill-formed value function (non-positive runtime, negative decay)."""


class WorkloadError(ReproError):
    """An ill-formed workload specification or trace."""


class SchedulingError(ReproError):
    """An invalid scheduler configuration or state transition."""


class AdmissionError(ReproError):
    """An invalid admission-control configuration."""


class MarketError(ReproError):
    """A violation of the bidding/negotiation protocol."""


class ContractViolation(MarketError):
    """A site attempted an operation inconsistent with a signed contract."""


class ExperimentError(ReproError):
    """An invalid experiment configuration."""


class LiveServiceError(ReproError):
    """A live-mode (wall-clock service) configuration or protocol error."""
