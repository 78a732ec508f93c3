"""RP10 — born addressed: every message an automaton builds names its register.

The sharded store's routers hand an automaton's effects on untouched, so a
message carries its register only because the automaton that built it said
``register_id=self.register_id`` (or, in a server-side layer, its server's).
A construction that forgets leaves the default ``""``, a register no router
knows: the receiving process drops the message and the operation that sent
it hangs — with every test of the single-register paper protocol still green.

The rule flags each call that builds a message without a ``register_id=``
keyword: a call of a message class (envelopes, which are never addressed,
excepted) or of a lease role's bound class (``self.role.grant(...)``).  It is
path-scoped to the layers that hold the automata — ``core/``, ``lease/``,
``variants/``, ``baselines/`` — and to the Byzantine strategies
(``sim/byzantine.py``).  A ``**`` splat may carry the keyword and passes.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from ..astutils import dotted_name
from ..findings import Finding
from ..protocol import (
    ADDRESSING_FILE_SUFFIXES,
    ADDRESSING_SCOPES,
    ENVELOPE_TYPE_NAMES,
    MESSAGE_TYPE_NAMES,
    ROLE_MESSAGE_FIELDS,
)
from ..registry import Rule, SourceFile, register

_ADDRESSED_TYPES = frozenset(MESSAGE_TYPE_NAMES) - ENVELOPE_TYPE_NAMES


def _in_scope(file: SourceFile) -> bool:
    return file.path_endswith(*ADDRESSING_FILE_SUFFIXES) or any(
        segment in ADDRESSING_SCOPES for segment in file.path_segments()[:-1]
    )


def _built_message(call: ast.Call) -> Optional[str]:
    """The callee's name if *call* builds a message, else ``None``."""
    name = dotted_name(call.func)
    if name is None:
        return None
    parts = name.split(".")
    if parts[-1] in _ADDRESSED_TYPES:
        return parts[-1]
    if len(parts) >= 2 and parts[-2] == "role" and parts[-1] in ROLE_MESSAGE_FIELDS:
        return name
    return None


@register
class BornAddressed(Rule):
    rule_id = "RP10"
    title = "born-addressed"
    rationale = (
        "routers pass an automaton's effects on untouched, so a message "
        "carries its register only if the automaton stamped it; one built "
        "without register_id= is dropped by the receiving router and its "
        "operation hangs.  Pass register_id=self.register_id."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not _in_scope(file):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            built = _built_message(node)
            if built is None:
                continue
            if any(keyword.arg in ("register_id", None) for keyword in node.keywords):
                continue
            findings.append(
                self.finding(file, node, f"{built}(...) is built without register_id=")
            )
        return findings
