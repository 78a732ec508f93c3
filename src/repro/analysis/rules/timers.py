"""RP06 — timer-id scoping; RP09 — a return ahead of the deadline cancels it.

RP06
----

Timers are cancelled and matched by string id.  A bare literal like
``"retry"`` is shared by every concurrent operation on the automaton: one
operation's completion cancels (or one round's stale firing resumes)
another's.  PR 5 fixed exactly this in the reader — its retry timer lacked
the op id, so an old read's timer fired into a new read's round.

The rule flags ``start_timer(...)`` / ``StartTimer(...)`` whose timer-id
argument is a context-free string: a plain constant, or an f-string with no
interpolated values.  Ids built by helpers (``self._timer_id(op_id, ...)``),
f-strings interpolating op/round state (or, for the lease tables' grace
timer, the role prefix — a deliberate per-role singleton), and named module
constants (scoped by the constant's definition site) all pass.

RP09
----
A client's round-1 timer is a *deadline*: a fast operation returns on the
acknowledgement that decides it, possibly long before the timer fires.  A
completion path that forgets to disarm the timer leaks one pending timer per
operation — dead events in the simulator's queue, live ``TimerHandle`` objects
on the asyncio loop — at exactly the rate the fast path was built to reach.

The rule looks at every class that arms a *round timer* — a ``start_timer``
whose delay is ``self.timer_delay``, the synchrony bound (lease timers run on
lease durations and are not round timers).  In such a class, or a subclass of
it in the same file, every method that builds an ``OperationComplete`` must
also call ``cancel_timer`` with the same id expression the timer was armed
under (guarding the call with "if it has not fired" is fine).  Completions
with a literal ``rounds=0`` are exempt: a zero-round operation never started a
round.  A completion that provably precedes the arming (a CAS that fails in
the query phase) says so with a suppression and its reason.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..astutils import class_functions, dotted_name, iter_calls
from ..findings import Finding
from ..registry import Rule, SourceFile, register


def _call_tail(call: ast.Call) -> Optional[str]:
    """The last identifier of the callee (``effects.start_timer`` → ``start_timer``)."""
    name = dotted_name(call.func)
    return None if name is None else name.split(".")[-1]


def _timer_id_argument(call: ast.Call) -> Optional[ast.expr]:
    if _call_tail(call) not in ("start_timer", "StartTimer"):
        return None
    for keyword in call.keywords:
        if keyword.arg == "timer_id":
            return keyword.value
    return call.args[0] if call.args else None


def _is_context_free(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return True
    if isinstance(node, ast.JoinedStr):
        return not any(
            isinstance(value, ast.FormattedValue) for value in node.values
        )
    return False


@register
class TimerIdScoping(Rule):
    rule_id = "RP06"
    title = "timer-id-scoping"
    rationale = (
        "timer ids are match keys shared across concurrent operations; a "
        "context-free literal lets one op's timer cancel or fire into "
        "another's round.  Interpolate the op/round id or use a named "
        "helper/constant."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            argument = _timer_id_argument(node)
            if argument is not None and _is_context_free(argument):
                findings.append(
                    self.finding(
                        file,
                        node,
                        "timer id is a context-free literal; interpolate "
                        "op/round context or use a scoped helper",
                    )
                )
        return findings


def _round_timer_ids(cls: ast.ClassDef) -> Set[str]:
    """Normalized id expressions of ``start_timer(<id>, self.timer_delay)``."""
    ids: Set[str] = set()
    for call in iter_calls(cls):
        if _call_tail(call) != "start_timer" or len(call.args) < 2:
            continue
        if dotted_name(call.args[1]) == "self.timer_delay":
            ids.add(ast.dump(call.args[0]))
    return ids


def _is_zero_round(call: ast.Call) -> bool:
    return any(
        keyword.arg == "rounds"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value == 0
        for keyword in call.keywords
    )


@register
class DeadlineTimerCancel(Rule):
    rule_id = "RP09"
    title = "deadline-timer-cancel"
    rationale = (
        "the round-1 timer is a deadline, so an operation may return long "
        "before it fires; a method that emits an OperationComplete in a class "
        "that arms a round timer (start_timer(..., self.timer_delay)) must "
        "cancel_timer the same id, or every fast operation leaks a pending "
        "timer.  Zero-round completions (rounds=0) are exempt."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        classes = [node for node in ast.walk(file.tree) if isinstance(node, ast.ClassDef)]
        armed: Dict[str, Set[str]] = {cls.name: _round_timer_ids(cls) for cls in classes}
        findings: List[Finding] = []
        # File order is definition order, so same-file bases are resolved.
        for cls in classes:
            for base in cls.bases:
                armed[cls.name] |= armed.get(dotted_name(base) or "", set())
            if not armed[cls.name]:
                continue
            for function in class_functions(cls):
                completions = [
                    call
                    for call in iter_calls(function)
                    if _call_tail(call) == "OperationComplete"
                    and not _is_zero_round(call)
                ]
                if not completions:
                    continue
                cancelled = {
                    ast.dump(call.args[0])
                    for call in iter_calls(function)
                    if _call_tail(call) == "cancel_timer" and call.args
                }
                if not cancelled & armed[cls.name]:
                    findings.append(
                        self.finding(
                            file,
                            completions[0],
                            f"{cls.name}.{function.name} completes an operation "
                            "but never cancels the round timer its class arms; "
                            "call cancel_timer with the id it was started under",
                        )
                    )
        return findings
