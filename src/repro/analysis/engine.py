"""The analysis engine: collect sources, parse, run rules, apply suppressions."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding
from .registry import Rule, SourceFile, instantiate

#: Pseudo rule id for files the engine could not parse.  Not a registered
#: rule (it cannot be selected or suppressed away): a tree that does not
#: parse cannot be certified by any rule.
PARSE_ERROR_RULE_ID = "RP00"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class AnalysisReport:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed_count: int = 0
    rule_ids: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def _iter_python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(
            name
            for name in dirnames
            if name not in _SKIP_DIRS and not name.startswith(".")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


class AnalysisEngine:
    """Run the registered rules over a set of paths, one file at a time."""

    def __init__(self, select: Optional[Sequence[str]] = None) -> None:
        self._select = list(select) if select is not None else None

    def run(self, paths: Sequence[str]) -> AnalysisReport:
        rules = instantiate(self._select)
        files, parse_failures = self._load(paths)

        raw: List[Finding] = list(parse_failures)
        for rule in rules:
            for file in files:
                raw.extend(rule.check_file(file))

        suppressions_by_path = {file.path: file.suppressions for file in files}
        findings: List[Finding] = []
        suppressed = 0
        for finding in raw:
            active = suppressions_by_path.get(finding.path, {})
            if finding.rule_id in active.get(finding.line, frozenset()):
                suppressed += 1
            else:
                findings.append(finding)

        findings.sort(key=lambda finding: finding.sort_key)
        return AnalysisReport(
            findings=findings,
            files_checked=len(files),
            suppressed_count=suppressed,
            rule_ids=[rule.rule_id for rule in rules],
        )

    def _load(
        self, paths: Sequence[str]
    ) -> Tuple[List[SourceFile], List[Finding]]:
        files: List[SourceFile] = []
        failures: List[Finding] = []
        seen = set()
        for root in paths:
            for path in _iter_python_files(root):
                normalized = os.path.normpath(path)
                if normalized in seen:
                    continue
                seen.add(normalized)
                try:
                    with open(normalized, "r", encoding="utf-8") as handle:
                        source = handle.read()
                    tree = ast.parse(source, filename=normalized)
                except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                    line = getattr(exc, "lineno", None) or 1
                    failures.append(
                        Finding(
                            rule_id=PARSE_ERROR_RULE_ID,
                            path=normalized,
                            line=line,
                            message=f"could not analyze file: {exc}",
                        )
                    )
                    continue
                files.append(SourceFile(normalized, source, tree))
        return files, failures


def run_analysis(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> AnalysisReport:
    """Convenience wrapper used by the CLI and tests."""
    return AnalysisEngine(select=select).run(paths)


# Re-exported for rule authors.
__all__ = [
    "AnalysisEngine",
    "AnalysisReport",
    "PARSE_ERROR_RULE_ID",
    "Rule",
    "run_analysis",
]
