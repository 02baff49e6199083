"""Rendering and the ``repro lint`` entry point.

Exit codes:

* 0 — analysis ran, no findings
* 1 — analysis ran, at least one finding
* 2 — usage error (unknown rule, missing path, bad flag)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis.static.diagnostics import RULES
from repro.analysis.static.engine import LintRun, LintUsageError, analyze_paths

#: Schema version for the JSON output; bump on breaking changes.
JSON_SCHEMA_VERSION = 1


def render_text(run: LintRun) -> str:
    """Human report: one ``path:line:col: CODE message`` line per finding."""
    lines = [diag.format() for diag in run.diagnostics]
    if run.diagnostics:
        per_rule = ", ".join(f"{code}: {n}" for code, n in run.counts.items())
        lines.append(
            f"{len(run.diagnostics)} finding(s) in {run.files_checked} file(s) ({per_rule})"
        )
    else:
        lines.append(f"clean: {run.files_checked} file(s), 0 findings")
    return "\n".join(lines)


def render_json(run: LintRun) -> str:
    """Machine report (stable key order, trailing newline)."""
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_checked": run.files_checked,
        "findings": [diag.to_json() for diag in run.diagnostics],
        "summary": run.counts,
        "rules": {
            code: {"name": rule.name, "summary": rule.summary}
            for code, rule in RULES.items()
        },
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based determinism & invariant analyzer: seeded-RNG "
            "discipline, sim-clock purity, ordered iteration, and "
            "await check-then-act races in the live service."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="fmt",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (default: all); repeatable",
    )
    parser.add_argument(
        "--strict-noqa",
        action="store_true",
        help="also report '# repro: noqa' comments that suppress nothing",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def list_rules() -> str:
    lines = []
    for code, rule in RULES.items():
        lines.append(f"{code} ({rule.name}): {rule.summary}")
    return "\n".join(lines)


def run_lint(
    paths: Sequence[str],
    fmt: str = "text",
    select: Optional[Sequence[str]] = None,
    strict_noqa: bool = False,
) -> int:
    """Analyze *paths* and print the report; returns the exit code."""
    try:
        run = analyze_paths(paths, select=select, strict_noqa=strict_noqa)
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        sys.stdout.write(render_json(run))
    else:
        print(render_text(run))
    return 0 if run.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    return run_lint(
        args.paths, fmt=args.fmt, select=args.select, strict_noqa=args.strict_noqa
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
