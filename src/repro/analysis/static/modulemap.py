"""Path → module identity and the project policy map.

The analyzer's rules are scoped by *module identity* (``repro.sim.rng``,
``repro.scheduling.pool``, ``scripts.unreached``), not by raw file
path, so the policy survives checkouts at any directory depth and the
fixture corpus can impersonate any module via a file-level pragma::

    # repro-lint: module=repro.scheduling.example

(The pragma is honoured anywhere in the first ten lines; it exists for
the test fixtures and for vendored snippets — production code should
never need it.)
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable

#: Module whose whole point is to own the project's RNG entry points.
SEEDED_STREAM_MODULE = "repro.sim.rng"

#: Module that owns *all* heap state in the simulation kernel (the
#: EventQueue: sorted lane and lazy cancellation).
EVENT_QUEUE_MODULE = "repro.sim.queue"

#: Packages whose code runs *inside* a simulation: behaviour here must be
#: a pure function of (workload, seed, config).
SIM_PATH_PREFIXES = (
    "repro.sim",
    "repro.scheduling",
    "repro.market",
    "repro.site",
    "repro.tasks",
    "repro.valuefn",
    "repro.workload",
    "repro.faults",
    "repro.resilience",
    "repro.resource",
)

#: Observability / measurement layers may read the wall clock: their
#: whole job is timing the real world, and they are forbidden (by design
#: and by the bit-identity test suite) from feeding back into sim state.
WALL_CLOCK_ALLOWLIST_PREFIXES = (
    "repro.obs",
    # the live service mode *is* the wall clock: its clocks, executor,
    # event loop, and the retrying client (repro.live.client: request
    # timeouts, backoff sleeps, monotonic deadlines) read real time by
    # design.  The boundary holds because live code reaches the shared
    # scheduling/market layers only through the Clock protocol
    # (repro.sim.clock) — those layers stay in SIM_PATH_PREFIXES and
    # stay forbidden.  One live module opts back OUT of this allowance:
    # repro.live.recovery is timestamp-passive (see below), so for it
    # the passivity rule wins over the package allowlist.
    "repro.live",
)

#: Packages whose iteration order directly decides scheduling tie-breaks.
HOT_PATH_PREFIXES = (
    "repro.sim",
    "repro.scheduling",
    "repro.market",
)

#: Timestamp-passive observability modules: they *consume* timestamps
#: (callers pass ``t`` from their own ``clock.now``) but must never read
#: a clock themselves — that keeps the flight-recorder/audit/replay
#: pipeline replayable in either clock domain, with wall time owned by
#: ``repro.live`` alone.
TIMESTAMP_PASSIVE_PREFIXES = (
    "repro.obs.flight",
    "repro.obs.prom",
    "repro.audit",
    "repro.replay",
    # crash recovery replays journaled timestamps: plan_recovery is a
    # pure function of the recording and apply_recovery takes `now` as a
    # parameter, so recovered settlements land at caller-chosen times —
    # never at times the module read off a clock itself
    "repro.live.recovery",
)

#: Presentation / tooling layers where print() IS the output channel.
PRINT_ALLOWLIST_PREFIXES = (
    "repro.cli",
    "repro.__main__",
    "repro.analysis",  # ASCII gantt/curve renderers and the lint reporter
    "repro.metrics.tables",
    "repro.live.serve",  # the service CLI announces its address/drain on stdout
    "repro.audit",  # `repro audit` writes its report to stdout
    "repro.replay",  # `repro replay` writes its A/B table to stdout
    "scripts",
    "examples",
    "tests",
)

_PRAGMA = re.compile(r"#\s*repro-lint:\s*module=([\w.]+)")

#: Top-level directories that map straight to a pseudo-package name.
_SCRIPT_DIRS = ("scripts", "examples", "tests")


def module_pragma(source: str) -> str | None:
    """The ``# repro-lint: module=...`` override, if present near the top."""
    for line in source.splitlines()[:10]:
        match = _PRAGMA.search(line)
        if match:
            return match.group(1)
    return None


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module identity for *path*.

    ``.../src/repro/sim/rng.py`` → ``repro.sim.rng``;
    ``scripts/unreached.py`` → ``scripts.unreached``;
    a path with no recognizable root maps to its stem (so policy scoped
    to ``repro.*`` simply does not apply).  The anchor is the *last*
    component that names a root, so a checkout that is itself called
    ``repro`` (``~/repro/src/repro/site/driver.py``,
    ``~/repro/scripts/unreached.py``) keeps its identity.
    """
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = [p for p in normalized.split("/") if p not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    anchors = [i for i, part in enumerate(parts) if part in ("repro", *_SCRIPT_DIRS)]
    if anchors:
        return ".".join(parts[anchors[-1]:])
    return parts[-1] if parts else path


def _under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def is_repro_library(module: str) -> bool:
    """Library code shipped in the ``repro`` package."""
    return module == "repro" or module.startswith("repro.")


def is_sim_path(module: str) -> bool:
    """Code whose behaviour must be a pure function of (workload, seed)."""
    return _under(module, SIM_PATH_PREFIXES) and not is_wall_clock_allowed(module)


def is_wall_clock_allowed(module: str) -> bool:
    return _under(module, WALL_CLOCK_ALLOWLIST_PREFIXES)


def is_hot_path(module: str) -> bool:
    return _under(module, HOT_PATH_PREFIXES)


def is_print_allowed(module: str) -> bool:
    return not is_repro_library(module) or _under(module, PRINT_ALLOWLIST_PREFIXES)


def is_live_service(module: str) -> bool:
    """The asyncio service layer: the event-loop disciplines apply.

    Scope of ASY001/ASY002 — the only package where an event loop runs
    on the wall clock.
    """
    return _under(module, ("repro.live",))


def is_journaled_act_scope(module: str) -> bool:
    """Where PR 8's journal-before-act contract (WAL001) is load-bearing.

    The live package, and the one shared module it acts through: a
    ``LiveSite`` is a ``MarketSite``, so the live service's contracts
    settle in ``repro.market.sites``.
    """
    return is_live_service(module) or module == "repro.market.sites"


def is_timestamp_passive(module: str) -> bool:
    """Observability code that takes timestamps as arguments, never reads them."""
    return _under(module, TIMESTAMP_PASSIVE_PREFIXES)


# ----------------------------------------------------------------------
# The clock/RNG scope table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PurityScope:
    """One row: rule *code* forbids *effects* in the *forbidden* modules.

    ``effects`` are names from the effect alphabet
    (:mod:`repro.analysis.static.effects`).  A direct row reports the
    offending call itself; a ``transitive`` row reports a call whose
    resolved callee carries the effect in its gated closure.  ``message``
    is the finding's template: ``{call}`` and ``{module}`` for direct
    rows; ``{function}``, ``{hazard}``, ``{via}`` and ``{chain}`` for
    transitive ones.
    """

    code: str
    effects: tuple[str, ...]
    forbidden: Callable[[str], bool]
    message: str
    transitive: bool = False


def _rng_forbidden(module: str) -> bool:
    return is_repro_library(module) and module != SEEDED_STREAM_MODULE


#: Which module family forbids which purity effect — the whole policy of
#: DET001 / DET002 / OBS002 / DET006, answered by one checker
#: (:func:`repro.analysis.static.rules_effects.check_purity`).
PURITY_SCOPES = (
    PurityScope(
        code="DET001",
        effects=("RNG",),
        forbidden=_rng_forbidden,
        message=(
            f"RNG call {{call}} outside {SEEDED_STREAM_MODULE}; "
            "draw from a named RandomStreams stream instead"
        ),
    ),
    PurityScope(
        code="DET002",
        effects=("WALL_CLOCK",),
        forbidden=is_sim_path,
        message=(
            "wall-clock read {call} in sim-path module {module}; use the "
            "sim clock (sim.now), or move the measurement into repro.obs"
        ),
    ),
    PurityScope(
        code="OBS002",
        effects=("WALL_CLOCK",),
        forbidden=is_timestamp_passive,
        message=(
            "wall-clock read {call} in timestamp-passive module {module}; "
            "accept t as a parameter from the caller's clock.now (wall "
            "time belongs to repro.live)"
        ),
    ),
    PurityScope(
        code="DET006",
        effects=("WALL_CLOCK", "RNG"),
        forbidden=is_sim_path,
        message=(
            "sim-path function {function} reaches a {hazard} effect via "
            "{via}: {chain}"
        ),
        transitive=True,
    ),
)


def seeds_purity_hazard(effect: str, module: str) -> bool:
    """Does a direct *effect* hit in *module* taint its callers (DET006)?

    Only where no per-module rule already reports it at the source: a
    wall-clock read outside sim-path code (DET002's beat) and outside the
    sanctioned boundary, or an RNG draw outside the ``repro`` package
    (DET001's beat).  The other half of the boundary — nothing in a
    wall-clock-allowed module inherits a purity effect either — is
    :func:`is_wall_clock_allowed`, applied by the effect propagation.
    """
    if effect == "WALL_CLOCK":
        return not is_sim_path(module) and not is_wall_clock_allowed(module)
    return not is_repro_library(module)
