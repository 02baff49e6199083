"""Shared experiment plumbing: the figure result container."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ExperimentError
from repro.metrics.tables import format_table


@dataclass
class FigureResult:
    """Rows of one regenerated figure plus provenance notes.

    *seed_rows* holds the same rows once per seed, built from that
    seed's values alone (see :func:`repro.experiments.parallel.sweep`);
    they are what the replication harness reads and are not written.
    """

    figure: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seed_rows: list[list[dict]] = field(default_factory=list, repr=False)

    def table(self, columns: Optional[Sequence[str]] = None) -> str:
        header = f"{self.figure}: {self.title}"
        body = format_table(self.rows, columns=columns, title=header)
        if self.notes:
            body += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return body

    def series(self, x: str, y: str, line: str) -> dict:
        """Group rows into ``{line_value: [(x, y), ...]}`` — the paper's
        lines-on-a-graph view, used by the shape checks."""
        out: dict = {}
        for row in self.rows:
            out.setdefault(row[line], []).append((row[x], row[y]))
        for key in out:
            out[key].sort()
        return out

    def write_json(self, path: str, obs=None) -> None:
        """Write the rows (and *obs*'s snapshot, when given) to *path* as
        JSON, creating parent directories; byte-identical for equal rows."""
        payload = {
            "figure": self.figure,
            "title": self.title,
            "rows": self.rows,
            "notes": self.notes,
        }
        if obs is not None:
            payload["observability"] = obs.snapshot()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def lookup(self, **coords) -> dict:
        """The unique row matching all coordinate equalities."""
        matches = [
            row for row in self.rows if all(row.get(k) == v for k, v in coords.items())
        ]
        if len(matches) != 1:
            raise ExperimentError(f"lookup{coords} matched {len(matches)} rows")
        return matches[0]
