"""Rule base class and registry.

Rules register themselves at import time via the :func:`register` decorator;
the engine instantiates a fresh object per run.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Type

from .findings import Finding
from .suppressions import parse_suppressions


class SourceFile:
    """A parsed source file handed to each rule."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = parse_suppressions(source)

    def path_endswith(self, *suffixes: str) -> bool:
        normalized = self.path.replace("\\", "/")
        return any(normalized.endswith(suffix) for suffix in suffixes)

    def path_segments(self) -> List[str]:
        return self.path.replace("\\", "/").split("/")


class Rule:
    """One discipline check.

    Subclasses set ``rule_id``/``title``/``rationale`` and override
    :meth:`check_file`.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        return ()

    def finding(self, file: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=file.path,
            line=getattr(node, "lineno", 1),
            message=message,
        )


_RULES: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add *rule_class* to the registry (id must be unique)."""
    rule_id = rule_class.rule_id
    if not rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_id in _RULES and _RULES[rule_id] is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _RULES[rule_id] = rule_class
    return rule_class


def _load_rules() -> None:
    # Rule modules self-register on import; importing the package is enough.
    from . import rules  # noqa: F401


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by id."""
    _load_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Type[Rule]:
    _load_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})") from None


RuleFactory = Callable[[], Rule]


def instantiate(selected: Optional[Iterable[str]] = None) -> List[Rule]:
    """Fresh rule instances for one engine run.

    *selected* restricts to the given ids; ``None`` means all rules.
    """
    if selected is None:
        return [rule_class() for rule_class in all_rules()]
    return [get_rule(rule_id)() for rule_id in selected]
