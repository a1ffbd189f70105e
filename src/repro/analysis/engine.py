"""Analysis orchestration: collect files, run rules, apply pragmas."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis import checkpoints as _checkpoints  # noqa: F401  (registers rules)
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import profiler_coverage as _profiler  # noqa: F401
from repro.analysis import rng_discipline as _rng  # noqa: F401
from repro.analysis import shard_routing as _shard_routing  # noqa: F401
from repro.analysis import tiebreak as _tiebreak  # noqa: F401
from repro.analysis.rules import Finding, instantiate_rules
from repro.analysis.walker import SourceFile

#: Synthetic code for unparseable source (no rule class: the walker owns it).
PARSE_ERROR_CODE = "SIM001"

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class AnalysisResult:
    """Everything one simlint run produced, pre-split for reporting."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> Set[str]:
        return {f.code for f in self.findings}


def collect_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(Path(dirpath) / filename)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    unique: Dict[Path, None] = {}
    for file in files:
        unique.setdefault(file.resolve(), None)
    return sorted(unique)


def _display_path(file: Path, root: Path) -> str:
    try:
        relative = file.resolve().relative_to(root.resolve())
        return relative.as_posix()
    except ValueError:
        return file.as_posix()


def run_analysis(
    paths: Sequence[Path],
    *,
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> AnalysisResult:
    """Run every (selected) rule over *paths* and return the split result.

    *root* anchors the reported relative paths; it defaults to the current
    working directory, matching CLI behaviour.
    """
    root = root if root is not None else Path.cwd()
    rules = instantiate_rules(select=select, ignore=ignore)
    files: List[SourceFile] = []
    findings: List[Finding] = []

    for file in collect_python_files(paths):
        src = SourceFile.load(file, _display_path(file, root))
        files.append(src)
        if src.syntax_error is not None:
            error = src.syntax_error
            findings.append(
                Finding(
                    code=PARSE_ERROR_CODE,
                    path=src.display,
                    line=int(error.lineno or 1),
                    column=int(error.offset or 1),
                    message=f"source failed to parse: {error.msg}",
                    source=src.source_line(int(error.lineno or 1)),
                )
            )
            continue
        for rule in rules:
            if rule.applies_to(src):
                findings.extend(rule.check_file(src))

    parsed = [src for src in files if src.tree is not None]
    for rule in rules:
        findings.extend(rule.check_project(parsed))

    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))

    result = AnalysisResult(files_scanned=len(files))
    by_display = {src.display: src for src in files}
    for finding in findings:
        src = by_display.get(finding.path)
        disabled = src.disabled_codes(finding.line) if src is not None else set()
        if finding.code in disabled or "ALL" in disabled:
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


__all__ = ["AnalysisResult", "run_analysis", "collect_python_files", "PARSE_ERROR_CODE"]
