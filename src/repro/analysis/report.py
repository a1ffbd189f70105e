"""Reporters — text for humans, github for CI annotations, json for artifacts."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import AnalysisResult

#: Formats accepted by ``--format``.
FORMATS = ("text", "json", "github")


def format_text(result: "AnalysisResult") -> str:
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.column}: "
            f"{finding.code} {finding.message}"
        )
    lines.append(
        f"simlint: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} pragma-suppressed, "
        f"{result.files_scanned} file(s) scanned"
    )
    return "\n".join(lines)


def format_github(result: "AnalysisResult") -> str:
    """GitHub Actions workflow-command annotations (one ``::error`` per finding)."""
    lines: List[str] = []
    for finding in result.findings:
        message = finding.message.replace("\n", " ")
        lines.append(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.column},title={finding.code}::{message}"
        )
    lines.append(format_text(result).splitlines()[-1])
    return "\n".join(lines)


def to_json_payload(result: "AnalysisResult") -> Dict:
    return {
        "tool": "simlint",
        "files_scanned": result.files_scanned,
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "counts": {
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
        },
    }


def format_json(result: "AnalysisResult") -> str:
    return json.dumps(to_json_payload(result), indent=2)


def render(result: "AnalysisResult", fmt: str) -> str:
    if fmt == "text":
        return format_text(result)
    if fmt == "github":
        return format_github(result)
    if fmt == "json":
        return format_json(result)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


__all__ = ["FORMATS", "format_text", "format_github", "format_json", "to_json_payload", "render"]
