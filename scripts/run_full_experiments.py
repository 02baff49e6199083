#!/usr/bin/env python
"""Regenerate every figure at paper scale and save tables + shape reports.

Writes ``results/<fig>.txt`` (table + checks) and ``results/<fig>.json``
(raw rows) for EXPERIMENTS.md.  Takes ~20–30 minutes.
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.analysis import render_curves
from repro.experiments.runner import EXPERIMENTS, run_experiment, shape_report

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    names = sys.argv[1:] or list(EXPERIMENTS)
    status = 0
    for name in names:
        start = time.time()
        result = run_experiment(name, scale="full")
        elapsed = time.time() - start
        checks = shape_report(result)
        x, y, line, log_x = EXPERIMENTS[name].axes
        plot = render_curves(
            result.series(x, y, line),
            title=f"[{y} vs {x}]",
            log_x=log_x,
        )
        text = result.table() + "\n\n" + plot + "\n\nshape checks:\n" + "\n".join(
            f"  {c}" for c in checks
        ) + f"\n\nelapsed: {elapsed:.0f}s\n"
        (OUT / f"{name}.txt").write_text(text)
        result.write_json(str(OUT / f"{name}.json"))
        failed = [c.name for c in checks if c.robust and not c.passed]
        print(f"{name}: {elapsed:.0f}s, robust checks "
              f"{'ALL PASS' if not failed else 'FAILED: ' + ', '.join(failed)}",
              flush=True)
        if failed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
