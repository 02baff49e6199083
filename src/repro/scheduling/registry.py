"""Heuristic registry: build schedulers by name for configs and the CLI."""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from repro.errors import SchedulingError
from repro.scheduling.base import SchedulingHeuristic
from repro.scheduling.baselines import FCFS, SRPT, SWPT
from repro.scheduling.firstprice import FirstPrice
from repro.scheduling.firstreward import FirstReward
from repro.scheduling.presentvalue import PresentValue

_FACTORIES: dict[str, Callable[..., SchedulingHeuristic]] = {
    "fcfs": FCFS,
    "srpt": SRPT,
    "swpt": SWPT,
    "firstprice": FirstPrice,
    "pv": PresentValue,
    "firstreward": FirstReward,
}


def available_heuristics() -> list[str]:
    """Names accepted by :func:`make_heuristic`."""
    return sorted(_FACTORIES)


def make_heuristic(name: str, **params) -> SchedulingHeuristic:
    """Instantiate a heuristic by registry name.

    >>> make_heuristic("firstreward", alpha=0.3, discount_rate=0.01).alpha
    0.3
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise SchedulingError(
            f"unknown heuristic {name!r}; options: {available_heuristics()}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise SchedulingError(f"bad parameters for heuristic {name!r}: {exc}") from exc


def heuristic_params(heuristic: SchedulingHeuristic) -> Optional[dict]:
    """The parameters that rebuild *heuristic* through :func:`make_heuristic`,
    or ``None`` when it is not what its registry name builds (a wrapper
    such as ``SurvivalDiscount``, a subclass): they cannot be read."""
    factory = _FACTORIES.get(heuristic.name)
    if factory is None or type(heuristic) is not factory:
        return None
    return {name: getattr(heuristic, name) for name in inspect.signature(factory).parameters}
