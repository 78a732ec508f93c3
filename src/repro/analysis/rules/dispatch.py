"""RP01 — dispatch exhaustiveness.

Every automaton dispatches messages through an ``isinstance`` chain in
``handle_message`` and falls through to ``return Effects()`` for anything it
does not recognise.  That fallthrough swallowed real protocol messages twice
in this repo's history (reader timestamp-query acks, lease revoke acks): the
sender retried forever and the operation wedged.

The rule makes the fallthrough safe by making it *total*: for every class
that dispatches on message types, the set

    handled-by-isinstance  ∪  DISPATCH_IGNORES

must cover every concrete wire message type (``Batch`` excluded — the
transport unpacks envelopes before dispatch).  ``DISPATCH_IGNORES`` is a
class-level tuple of message types the automaton deliberately drops; the
named groups ``CLIENT_BOUND_MESSAGES`` / ``SERVER_BOUND_MESSAGES`` expand to
their members.  Classes that *delegate* unrecognised messages (an
unconditional ``super().handle_message(message)`` or
``self.inner.handle_message(message)``) carry no obligation of their own.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..astutils import (
    find_method,
    flatten_name_tuple,
    isinstance_targets,
    iter_calls,
    message_param_name,
)
from ..findings import Finding
from ..protocol import DISPATCH_OBLIGATION, MESSAGE_GROUPS, MESSAGE_TYPE_NAMES
from ..registry import Rule, SourceFile, register

_KNOWN_TYPES = set(MESSAGE_TYPE_NAMES)
_DECLARATION = "DISPATCH_IGNORES"


def _handled_types(method: ast.FunctionDef, param: str) -> Set[str]:
    """Message types tested by any ``isinstance(<param>, ...)`` in *method*."""
    handled: Set[str] = set()
    for call in iter_calls(method):
        tested, names = isinstance_targets(call)
        if tested == param:
            handled |= names & _KNOWN_TYPES
    return handled


def _delegates(method: ast.FunctionDef, param: str) -> bool:
    """True when unrecognised messages are forwarded rather than dropped.

    A delegation is a ``*.handle_message(<param>)`` call sitting in the
    method's top-level statement list — i.e. reached on *every* path, not
    just inside one ``isinstance`` branch: a wrapper that picks out the types
    it cares about and ends in ``return self.inner.handle_message(message)``
    or ``return super().handle_message(message)``.  (The lease roles do not
    rely on it: they hand every message to their ``LeaseTable`` / ``LeaseHolder``
    first, which answers ``None`` for anything that is not lease traffic, and
    name no message type in ``handle_message`` at all.)
    """
    for statement in method.body:
        for call in ast.walk(statement):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "handle_message"):
                continue
            if not (
                call.args
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id == param
            ):
                continue
            # Guarded forwarding (inside `if isinstance(...)`) is handling,
            # not delegation; only statement-list-level calls count.
            if statement in method.body and not _inside_branch(statement, call):
                return True
    return False


def _inside_branch(statement: ast.stmt, call: ast.Call) -> bool:
    """Whether *call* sits under an ``if``/``elif`` within *statement*."""
    for node in ast.walk(statement):
        if isinstance(node, ast.If):
            for child in ast.walk(node):
                if child is call:
                    return True
    return False


def _declared_ignores(
    cls: ast.ClassDef,
) -> Optional[ast.AST]:
    """The value expression of the class's ``DISPATCH_IGNORES``, if any."""
    for statement in cls.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == _DECLARATION:
                    return statement.value
        elif isinstance(statement, ast.AnnAssign):
            if (
                isinstance(statement.target, ast.Name)
                and statement.target.id == _DECLARATION
                and statement.value is not None
            ):
                return statement.value
    return None


@register
class DispatchExhaustiveness(Rule):
    rule_id = "RP01"
    title = "dispatch-exhaustiveness"
    rationale = (
        "handle_message falls through to `return Effects()`; a message type "
        "missing from the isinstance chain is silently dropped and the "
        "sender retries forever.  Handle it or declare it in "
        "DISPATCH_IGNORES."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(file, node))
        return findings

    def _check_class(
        self, file: SourceFile, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        method = find_method(cls, "handle_message")
        if method is None:
            return
        param = message_param_name(method)
        if param is None:
            return

        handled = _handled_types(method, param)
        if not handled:
            # Routers (sharding) and interceptors dispatch on fields or
            # forward wholesale — no per-type obligation.
            return
        if _delegates(method, param):
            return

        ignored: Set[str] = set()
        declaration = _declared_ignores(cls)
        if declaration is not None:
            names = flatten_name_tuple(declaration)
            if names is None:
                yield self.finding(
                    file,
                    declaration,
                    f"{cls.name}.{_DECLARATION} must be a tuple of message "
                    "types and/or message groups (`+` concatenation allowed)",
                )
                return
            for name in names:
                if name in MESSAGE_GROUPS:
                    ignored |= set(MESSAGE_GROUPS[name])
                elif name in _KNOWN_TYPES:
                    ignored.add(name)
                else:
                    yield self.finding(
                        file,
                        declaration,
                        f"{cls.name}.{_DECLARATION} names unknown message "
                        f"type or group {name!r}",
                    )

        missing = DISPATCH_OBLIGATION - handled - ignored
        if missing:
            listing = ", ".join(sorted(missing))
            yield Finding(
                rule_id=self.rule_id,
                path=file.path,
                line=method.lineno,
                message=(
                    f"{cls.name}.handle_message neither handles nor declares "
                    f"ignoring: {listing}"
                ),
            )
