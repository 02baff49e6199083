"""The repo's refereed benchmark (``python -m bench run|compare``).

Four workloads drive the system through its public entry points only;
end-to-end numbers come from untraced runs, per-layer numbers from a
separate traced run that wraps the same calls from this package.  See
``bench/README.md`` for the workloads, metrics and run protocol.
"""

from __future__ import annotations

import os
import sys

#: Root of the checkout (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, env.get("PYTHONPATH", "")) if p
    )
    return env


# The benchmark has no build step: it runs the program straight from
# this checkout's ``src/``.  In a directory without ``src/`` the first
# ``import repro`` fails and the run exits non-zero without a result.
if SRC not in sys.path:
    sys.path.insert(0, SRC)
