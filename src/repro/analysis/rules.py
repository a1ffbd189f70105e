"""Rule base class, finding record and the simlint rule registry."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Type

from repro.analysis.walker import SourceFile


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule code anchored to a source location."""

    code: str
    path: str
    line: int
    column: int
    message: str
    source: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "source": self.source,
        }


class Rule:
    """One named check.

    Subclasses set ``code``/``name``/``description`` and implement either
    :meth:`check_file` (per-module AST pass) or :meth:`check_project`
    (cross-module contract pass over every parsed file), or both.
    ``scope_dirs`` restricts a per-file rule to files under the named
    directories (``("cluster", "core")`` — the simulation core); ``None``
    means every scanned file.  ``exempt_suffixes`` names path suffixes the
    rule never applies to (e.g. the one module allowed to read the host
    clock).
    """

    code: str = ""
    name: str = ""
    description: str = ""
    scope_dirs: Optional[Tuple[str, ...]] = None
    exempt_suffixes: Tuple[str, ...] = ()

    def applies_to(self, src: SourceFile) -> bool:
        if any(src.matches(suffix) for suffix in self.exempt_suffixes):
            return False
        if self.scope_dirs is None:
            return True
        return any(src.in_dir(directory) for directory in self.scope_dirs)

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        return ()

    def check_project(self, files: List[SourceFile]) -> Iterable[Finding]:
        return ()

    # ------------------------------------------------------------- helpers
    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            code=self.code,
            path=src.display,
            line=line,
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            source=src.source_line(line),
        )


#: code -> rule class, in registration order.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (codes are unique)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    existing = RULE_REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(f"rule code {cls.code} already registered by {existing.__name__}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def all_rule_codes() -> List[str]:
    return list(RULE_REGISTRY)


def instantiate_rules(
    select: Optional[Iterable[str]] = None, ignore: Optional[Iterable[str]] = None
) -> List[Rule]:
    """Build rule instances, honouring ``--select`` / ``--ignore`` prefixes.

    Prefix matching means ``SIM1`` selects the whole determinism family and
    ``SIM301`` exactly one rule.
    """
    selected = [prefix.strip().upper() for prefix in (select or []) if prefix.strip()]
    ignored = [prefix.strip().upper() for prefix in (ignore or []) if prefix.strip()]
    rules: List[Rule] = []
    for code, cls in RULE_REGISTRY.items():
        if selected and not any(code.startswith(prefix) for prefix in selected):
            continue
        if any(code.startswith(prefix) for prefix in ignored):
            continue
        rules.append(cls())
    return rules


@dataclass
class RuleInfo:
    """Row of the ``--list-rules`` table."""

    code: str
    name: str
    description: str
    scope: str = "all files"


def rule_table() -> List[RuleInfo]:
    rows = []
    for code, cls in RULE_REGISTRY.items():
        if cls.scope_dirs:
            scope = " + ".join(f"{d}/" for d in cls.scope_dirs)
        else:
            scope = "all files"
        if cls.exempt_suffixes:
            scope += " except " + ", ".join(cls.exempt_suffixes)
        rows.append(RuleInfo(code=code, name=cls.name, description=cls.description, scope=scope))
    return rows


__all__ = [
    "Finding",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "all_rule_codes",
    "instantiate_rules",
    "RuleInfo",
    "rule_table",
]
