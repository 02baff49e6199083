"""AST-based determinism & invariant analyzer (``repro lint``).

Every result in this reproduction rests on contracts the test suite can
only spot-check after the fact: seeded RNG streams and sim-time clocks
(paper §4.1), ordered iteration where it decides tie-breaks, and — in the
live service — an event loop nothing blocks and a journal written before
every act.  This package turns those conventions into machine-checked
invariants: a single stray ``time.time()``, unseeded ``np.random`` call,
or unsorted ``set`` iteration in a scheduler is caught at lint time
instead of via a flaky golden-bytes diff.

Layers:

* :mod:`repro.analysis.static.diagnostics` — the :class:`Diagnostic`
  record and the :data:`RULES` catalog (code, summary, rationale).
* :mod:`repro.analysis.static.modulemap` — path → module identity and
  the project policy map: sim-path modules, allowlists, hot paths, and
  the clock/RNG scope table (which module family forbids which effect).
* :mod:`repro.analysis.static.noqa` — ``# repro: noqa RULE`` per-line
  suppression comments.
* :mod:`repro.analysis.static.callgraph` — the project-wide function and
  class index and its under-approximating call edges.
* :mod:`repro.analysis.static.effects` — the effect alphabet, the
  clock/RNG/blocking/journal detectors, and :class:`EffectIndex`: direct
  effects per function and their closure over the call graph (the
  analyzer's one propagation).
* :mod:`repro.analysis.static.rules_effects` — the rules that query it:
  DET001, DET002, OBS002, DET006 (clock/RNG purity, one checker over the
  scope table), ASY001, ASY002, WAL001.
* :mod:`repro.analysis.static.rules_determinism` — DET003…DET005, and
  :mod:`repro.analysis.static.rules_hygiene` — OBS001: per-file,
  syntactic.
* :mod:`repro.analysis.static.engine` — file discovery, the two-pass
  analysis run, suppression and rule selection.
* :mod:`repro.analysis.static.report` — text / JSON rendering and the
  ``repro lint`` entry point (exit codes 0 clean / 1 findings /
  2 usage error).
"""

from repro.analysis.static.diagnostics import RULES, Diagnostic, Rule
from repro.analysis.static.engine import LintRun, analyze_paths
from repro.analysis.static.report import main as lint_main
from repro.analysis.static.report import render_json, render_text

__all__ = [
    "RULES",
    "Diagnostic",
    "LintRun",
    "Rule",
    "analyze_paths",
    "lint_main",
    "render_json",
    "render_text",
]
