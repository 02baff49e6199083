"""AST-based determinism & invariant analyzer (``repro lint``).

Every result in this reproduction rests on contracts the test suite can
only spot-check after the fact: seeded RNG streams and sim-time clocks
(paper §4.1), and ordered iteration where it decides tie-breaks.  This
package turns those conventions into machine-checked invariants: a
single stray ``time.time()``, unseeded ``np.random`` call, or unsorted
``set`` iteration in a scheduler is caught at lint time instead of via
a flaky golden-bytes diff.  Every rule reads one file at a time.

Layers:

* :mod:`repro.analysis.static.diagnostics` — the :class:`Diagnostic`
  record and the :data:`RULES` catalog (code, summary, rationale).
* :mod:`repro.analysis.static.modulemap` — path → module identity and
  the project policy map: sim-path modules, allowlists, hot paths, and
  the clock/RNG scope table (which module family forbids which effect).
* :mod:`repro.analysis.static.noqa` — ``# repro: noqa RULE`` per-line
  suppression comments.
* :mod:`repro.analysis.static.effects` — the clock and RNG name tables.
* :mod:`repro.analysis.static.rules_effects` — DET001, DET002, OBS002
  (clock/RNG purity, one checker over the scope table) and ASY002.
* :mod:`repro.analysis.static.rules_determinism` — DET003…DET005, and
  :mod:`repro.analysis.static.rules_hygiene` — OBS001: syntactic.
* :mod:`repro.analysis.static.engine` — file discovery, the one-pass
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
