"""``python -m repro.analysis`` — the simlint command line.

Exit codes: 0 clean (after pragmas), 1 findings, 2 usage errors.  A finding
is suppressed only by a ``# simlint: disable=SIMxxx <reason>`` pragma.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import run_analysis
from repro.analysis.report import FORMATS, render, to_json_payload
from repro.analysis.rules import rule_table

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "simlint: AST-based determinism & contract checker for the "
            "simulator (rule families SIM1xx determinism, SIM2xx RNG "
            "discipline, SIM3xx tie-break hazards, SIM4xx checkpoint "
            "coverage, SIM5xx profiler coverage)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format: text (default), json, or github (CI annotations)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the full JSON report to this path (CI artifact)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated code prefixes to run (SIM1 = the whole family)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated code prefixes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [token for token in raw.split(",") if token.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(f"{'code':<8} {'name':<32} scope")
        for row in rule_table():
            print(f"{row.code:<8} {row.name:<32} {row.scope}")
            print(f"{'':8} {row.description}")
        return 0

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")

    result = run_analysis(
        paths, select=_split_codes(args.select), ignore=_split_codes(args.ignore)
    )
    print(render(result, args.format))
    if args.output is not None:
        args.output.write_text(
            json.dumps(to_json_payload(result), indent=2) + "\n", encoding="utf-8"
        )
    return 0 if result.ok else 1


__all__ = ["main", "build_parser"]
