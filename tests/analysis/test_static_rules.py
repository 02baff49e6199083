"""Source guards: what the simulator's determinism rests on, checked on ``src/repro``.

Every figure reproduces because a simulation is a pure function of
(workload, seed, config): it draws only from seeded streams and reads
only the sim clock.  This module parses every ``src/repro/**/*.py`` once
and checks, by module identity taken from the path, who may do what:

| Guard  | Forbids | In | Except |
|--------|---------|----|--------|
| DET001 | a call into ``random.*`` / ``numpy.random.*`` | every ``repro.*`` module | ``repro.sim.rng``, which owns the seeded streams |
| DET002 | a wall-clock read (``time.time``, ``perf_counter``, ``datetime.now``, …) | every ``repro.*`` module | ``repro.obs`` (measurement), ``repro.live`` (the live service *is* the wall clock), ``repro.cli`` (times its commands) |
| OBS002 | a wall-clock read | the timestamp-passive modules ``repro.obs.flight``, ``repro.obs.prom``, ``repro.audit``, ``repro.replay``, ``repro.live.recovery``: they take ``t`` from the caller's ``clock.now``, so a journal replays in either clock domain | — |
| DET003 | a ``for`` or comprehension over a set: a set literal, ``set()``/``frozenset()``, set algebra, or a name or ``self.X`` bound to one or annotated as one. Object and ``str`` hashes differ between processes, so a tie-break would too; iterate ``sorted(...)`` | the sim-path modules (``repro.sim``, ``scheduling``, ``market``, ``site``, ``tasks``, …) | — |
| DET005 | ``import heapq`` or a ``heapq.*`` call | ``repro.sim.*`` | ``repro.sim.queue``: the EventQueue's lazy cancellation, its essential count and its state check on push are invariants a raw heap would bypass |
| OBS001 | a bare ``print()`` outside ``if __name__ == "__main__"`` | every ``repro.*`` module | the layers whose output is stdout: ``repro.cli``, ``repro.__main__``, ``repro.analysis`` (ASCII renderers), ``repro.metrics.tables``, ``repro.live.serve``, ``repro.audit``, ``repro.replay`` |
| ASY002 | in an ``async def``, ``self.X`` read in an ``if``/``while`` test, then an ``await``, then ``self.X`` written: another task can change ``X`` while the loop is yielded | ``repro.live.*`` | — |

A call counts by the name it resolves to through the file's imports
(``np.random.default_rng`` is ``numpy.random.default_rng``), lazy
function-local imports included.  DET002 holds for code the simulator
reaches only while no sim-path module imports ``repro.live`` or
``repro.cli``, which is checked here too.  Each guard also runs on a
snippet that must trip it, so a guard that can no longer fire fails.

Two disciplines are checked where they happen, at run time: a blocking
call on a running event loop fails every live test
(``tests/live/conftest.py``), and a live award journaled before its
write-ahead intent is the audit violation ``bid_before_intent``.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Calls that read the machine clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

SEEDED_STREAM_MODULE = "repro.sim.rng"
EVENT_QUEUE_MODULE = "repro.sim.queue"
#: Code that runs inside a simulation.
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
WALL_CLOCK_PREFIXES = ("repro.obs", "repro.live", "repro.cli")
TIMESTAMP_PASSIVE_PREFIXES = (
    "repro.obs.flight",
    "repro.obs.prom",
    "repro.audit",
    "repro.replay",
    "repro.live.recovery",
)
PRINT_PREFIXES = (
    "repro.cli",
    "repro.__main__",
    "repro.analysis",
    "repro.metrics.tables",
    "repro.live.serve",
    "repro.audit",
    "repro.replay",
)


def module_name_for_path(path: Path) -> str:
    """``src/repro/sim/rng.py`` → ``repro.sim.rng``; a package is its ``__init__``."""
    parts = path.resolve().relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def is_wall_clock_allowed(module: str) -> bool:
    return _under(module, WALL_CLOCK_PREFIXES)


def is_timestamp_passive(module: str) -> bool:
    return _under(module, TIMESTAMP_PASSIVE_PREFIXES)


def is_sim_path(module: str) -> bool:
    return _under(module, SIM_PATH_PREFIXES) and not is_wall_clock_allowed(module)


def is_print_allowed(module: str) -> bool:
    return _under(module, PRINT_PREFIXES)


# ----------------------------------------------------------------------
# What a file does
# ----------------------------------------------------------------------

def _imports(tree: ast.AST) -> dict[str, str]:
    """Local name → dotted target, from every absolute import in the file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _calls(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every call rooted at an imported name."""
    aliases = _imports(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = []
        func = node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in aliases:
            found.append((node.lineno, ".".join([aliases[func.id], *reversed(parts)])))
    return found


def rng_calls(tree: ast.AST) -> list[int]:
    return [line for line, name in _calls(tree) if name.startswith(("random.", "numpy.random."))]


def clock_reads(tree: ast.AST) -> list[int]:
    return [line for line, name in _calls(tree) if name in WALL_CLOCK_CALLS]


def heap_uses(tree: ast.AST) -> list[int]:
    lines = [line for line, name in _calls(tree) if name.split(".", 1)[0] == "heapq"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name.split(".", 1)[0] == "heapq" for alias in node.names
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
            lines.append(node.lineno)
    return sorted(lines)


SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})


def _bound_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if _is_self_attr(node):
        return "self." + node.attr
    return None


def _is_set_annotation(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in SET_TYPES


def set_iterations(tree: ast.AST) -> list[int]:
    """Lines of a ``for`` or comprehension whose iterable is a set.  A name
    counts as a set once any assignment in the file binds it to one."""
    bound = {
        _bound_name(node.target)
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation)
    } | {
        node.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) and node.annotation and _is_set_annotation(node.annotation)
    }
    bound.discard(None)

    def is_set(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return is_set(node.left) and is_set(node.right)
        name = _bound_name(node)
        return name is not None and name in bound

    assigns = [(t, n.value) for n in ast.walk(tree) if isinstance(n, ast.Assign) for t in n.targets]
    while new := {_bound_name(t) for t, value in assigns if is_set(value)} - bound - {None}:
        bound |= new
    return sorted(
        node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and is_set(node.iter)
    )


def check_then_act(tree: ast.AST) -> list[int]:
    """Writes of ``self.X`` that follow a test of ``self.X`` across an
    ``await`` in the same ``async def`` (nested defs are their own)."""
    lines = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        events = []  # (line, kind, attr)
        body = list(ast.iter_child_nodes(func))
        while body:
            node = body.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            body.extend(ast.iter_child_nodes(node))
            if isinstance(node, (ast.If, ast.While)):
                events += [(a.lineno, "read", a.attr) for a in ast.walk(node.test) if _is_self_attr(a)]
            elif isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
                events.append((node.lineno, "await", ""))
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AugAssign) else []
            )
            events += [(t.lineno, "write", t.attr) for t in targets if _is_self_attr(t)]
        awaits = [line for line, kind, _ in events if kind == "await"]
        first_read: dict[str, int] = {}
        for line, kind, attr in sorted(events):
            if kind == "read":
                first_read.setdefault(attr, line)
            elif kind == "write" and attr in first_read:
                if any(first_read[attr] < a < line for a in awaits):
                    lines.append(line)
    return sorted(set(lines))


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def bare_prints(tree: ast.AST) -> list[int]:
    script_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for inner in ast.walk(node)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and id(node) not in script_only
    ]


# ----------------------------------------------------------------------
# The guards
# ----------------------------------------------------------------------

class Guard(NamedTuple):
    applies: Callable[[str], bool]
    finds: Callable[[ast.AST], list[int]]
    #: a module the guard covers, one it spares, and a snippet that trips it
    covered: str
    spared: str
    snippet: str


GUARDS = {
    "DET001": Guard(
        lambda module: module != SEEDED_STREAM_MODULE,
        rng_calls,
        "repro.site.service",
        SEEDED_STREAM_MODULE,
        "import numpy as np\nrng = np.random.default_rng()\n",
    ),
    "DET002": Guard(
        lambda module: not is_wall_clock_allowed(module) and not is_timestamp_passive(module),
        clock_reads,
        "repro.metrics.stats",
        "repro.obs.instrument",
        "from time import perf_counter\nstarted = perf_counter()\n",
    ),
    "OBS002": Guard(
        is_timestamp_passive,
        clock_reads,
        "repro.live.recovery",
        "repro.live.service",
        "import datetime\nstamp = datetime.datetime.now()\n",
    ),
    "DET003": Guard(
        is_sim_path,
        set_iterations,
        "repro.site.service",
        "repro.live.executor",
        "ready = {first, second}\norder = [task.tid for task in ready]\n",
    ),
    "DET005": Guard(
        lambda module: _under(module, ("repro.sim",)) and module != EVENT_QUEUE_MODULE,
        heap_uses,
        "repro.sim.kernel",
        EVENT_QUEUE_MODULE,
        "import heapq\n",
    ),
    "OBS001": Guard(
        lambda module: not is_print_allowed(module),
        bare_prints,
        "repro.market.broker",
        "repro.metrics.tables",
        "def report(rows):\n    print(rows)\n",
    ),
    "ASY002": Guard(
        lambda module: _under(module, ("repro.live",)),
        check_then_act,
        "repro.live.service",
        "repro.market.broker",
        "async def stop(self):\n    if self.runs:\n        await gather(*self.runs)\n"
        "        self.runs = set()\n",
    ),
}


def offences(code: str, module: str, tree: ast.AST) -> list[int]:
    guard = GUARDS[code]
    return guard.finds(tree) if guard.applies(module) else []


@functools.cache
def shipped_modules() -> dict[str, ast.Module]:
    """Every module under ``src/repro``, parsed once."""
    return {
        module_name_for_path(path): ast.parse(path.read_text(), str(path))
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def test_analyze_shipped_tree_is_clean_in_process():
    modules = shipped_modules()
    assert len(modules) > 100
    found = [
        f"{module}:{line} {code}"
        for module, tree in modules.items()
        for code in GUARDS
        for line in offences(code, module, tree)
    ]
    assert not found, found


@pytest.mark.parametrize("code", GUARDS)
def test_every_rule_has_positive_and_negative_coverage(code):
    """The guard's snippet trips it in a module it covers and not in the
    module it spares, and no guard fires on code that does nothing."""
    guard = GUARDS[code]
    tree = ast.parse(guard.snippet)
    # the offence is the snippet's last line
    assert offences(code, guard.covered, tree) == [guard.snippet.count("\n")]
    assert offences(code, guard.spared, tree) == []
    assert offences(code, guard.covered, ast.parse("x = 1\n")) == []


def test_rule_table_in_the_docs_matches_the_catalog():
    """The policy table in this module's docstring lists exactly the guards."""
    rows = [
        line.split("|")[1].strip()
        for line in __doc__.splitlines()
        if line.startswith("| ") and not line.startswith("| Guard")
    ]
    assert rows == list(GUARDS)


# ----------------------------------------------------------------------
# Module identity and scope
# ----------------------------------------------------------------------

def test_module_name_for_path_variants():
    assert module_name_for_path(SRC / "repro" / "sim" / "rng.py") == "repro.sim.rng"
    assert module_name_for_path(SRC / "repro" / "obs" / "__init__.py") == "repro.obs"
    assert module_name_for_path(SRC / "repro" / "__main__.py") == "repro.__main__"
    assert module_name_for_path(SRC / "repro" / "sim" / ".." / "cli.py") == "repro.cli"
    assert {"repro", "repro.sim.rng", "repro.sim.queue", "repro.cli"} <= set(shipped_modules())


def test_policy_predicates():
    assert is_sim_path("repro.sim.kernel")
    assert is_sim_path("repro.scheduling.firstreward")
    assert not is_sim_path("repro.obs.instrument")
    assert not is_sim_path("repro.cli")
    assert is_wall_clock_allowed("repro.cli")
    assert is_print_allowed("repro.cli")
    assert not is_print_allowed("repro.site.engine")
    assert GUARDS["DET001"].applies("repro.obs.instrument")
    assert not GUARDS["DET005"].applies("repro.scheduling.pool")
    assert GUARDS["DET003"].applies("repro.scheduling.generic")
    assert not GUARDS["DET003"].applies("repro.live.executor")


def test_live_mode_scoping():
    """repro.live owns the wall clock; the shared layers it calls stay sim-path."""
    assert not is_sim_path("repro.live.clock")
    assert not is_sim_path("repro.live.executor")
    # the boundary: code shared with the simulator remains forbidden
    assert is_sim_path("repro.sim.clock")
    assert is_sim_path("repro.market.sites")
    assert is_sim_path("repro.site.admission")
    # only the serve CLI prints; the library modules stay quiet
    assert is_print_allowed("repro.live.serve")
    assert not is_print_allowed("repro.live.service")
    assert not is_print_allowed("repro.live.httpd")
    # the retrying client's sleeps, timeouts and deadlines read real time
    assert is_wall_clock_allowed("repro.live.client")
    # crash recovery opts back out: timestamp-passive although it sits
    # under repro.live, so OBS002 covers it and DET002 does not
    assert is_timestamp_passive("repro.live.recovery")
    assert GUARDS["OBS002"].applies("repro.live.recovery")
    assert not GUARDS["DET002"].applies("repro.live.recovery")
    assert not is_timestamp_passive("repro.live.client")
    assert not is_timestamp_passive("repro.live.service")


def test_sim_path_never_imports_the_wall_clock_layers():
    """DET002 flags a clock read at its source everywhere but repro.obs,
    repro.live and repro.cli.  That covers every read sim-path code can
    reach only while no sim-path module imports repro.live or repro.cli
    (lazy, function-local imports included)."""
    offenders = []
    for module, tree in shipped_modules().items():
        if not is_sim_path(module):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders.extend(
                f"{module}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[:2] in (["repro", "live"], ["repro", "cli"])
            )
    assert not offenders, offenders
