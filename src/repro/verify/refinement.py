"""Refinement check: the deadline round 1 against the paper-faithful one.

Under :attr:`~repro.core.automaton.TimerPolicy.DEADLINE` a client returns from
round 1 on the acknowledgement that makes the operation fast instead of
sitting out the timer (Fig. 1 l.5, Fig. 2 l.17).  That is only admissible if
it never decides anything the paper's automaton could not have decided on the
same replies, so this module *exhausts* the replies of a small configuration
rather than argue about them (the method of "Experiments in Model-Checking
Optimistic Replication Algorithms", PAPERS.md).

:func:`check_round_one_refinement` takes the acknowledgements a round can
receive — honest, forged, or whatever the caller built — and walks every
arrival order and every prefix of it (servers that never answer are prefixes).
Along each order it drives a ``DEADLINE`` client and a ``WAIT`` client side by
side and requires:

* **early return** — when the deadline client completes on some prefix, the
  paper-faithful client fed the same prefix followed by its timer emits the
  identical :class:`~repro.core.automaton.OperationComplete` (value, ``ts``,
  ``rounds``, ``fast``, every metadata key) and nothing else, the completion
  is fast, and both end in the same externally visible state; the deadline
  client cancels
  exactly its round-1 timer and ignores everything that arrives afterwards;
* **no early return** — on every other prefix neither client emits anything,
  and when the timer fires there both continue identically: the same effects
  at expiry and on each acknowledgement that is still to come.

The clients store replies per server and only count them, so neither *which*
server of a group with equal replies answered nor the order *within* a prefix
changes what follows it.  Arrival orders are therefore walked as the lattice
of reply multisets — a node is "these replies are in, nobody returned yet",
an edge is the next reply — and every edge and every expiry is checked once:
with ``S = 6`` and four equal replies that is 20 nodes, not 720 orders times
their prefixes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..core.automaton import ClientAutomaton, Effects, TimerPolicy
from ..core.messages import Message

#: Builds a fresh client automaton under the given round-1 policy.
ClientFactory = Callable[[TimerPolicy], ClientAutomaton]

#: Invokes the operation under test and returns the effects that *started the
#: timed round* (for an MWMR write: after the query phase was driven through).
Invoke = Callable[[ClientAutomaton], Effects]


@dataclass(frozen=True)
class RefinementViolation:
    """One arrival order on which the two policies disagree."""

    order: Tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"after acks from {list(self.order)}: {self.detail}"


@dataclass
class RefinementReport:
    """What one exhaustive walk covered and what it found."""

    #: Reply sets reached with the operation still pending (expiry checked
    #: at each), and edges on which the deadline client returned early.
    pending_sets: int = 0
    early_returns: int = 0
    violations: List[RefinementViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _content(message: Message) -> Message:
    """The reply with its sender blanked: equal contents are interchangeable."""
    return replace(message, sender="")  # type: ignore[type-var]


def _feed(client: ClientAutomaton, ack: Optional[Message], timer_id: str) -> Effects:
    """Deliver *ack* to *client*, or fire its round-1 timer when *ack* is ``None``."""
    return client.on_timer(timer_id) if ack is None else client.handle_message(ack)


class _Walk:
    def __init__(self, make_client: ClientFactory, invoke: Invoke, acks: Sequence[Message]) -> None:
        self.make_client = make_client
        self.invoke = invoke
        self.report = RefinementReport()
        self._seen: Set[Tuple[int, ...]] = set()
        # Group the replies by content; within a group the first remaining
        # member stands for all of them.
        self.groups: List[List[Message]] = []
        for ack in acks:
            for group in self.groups:
                if _content(group[0]) == _content(ack):
                    group.append(ack)
                    break
            else:
                self.groups.append([ack])

    def run(self) -> RefinementReport:
        deadline = self.make_client(TimerPolicy.DEADLINE)
        faithful = self.make_client(TimerPolicy.WAIT)
        started = self.invoke(deadline)
        if self.invoke(faithful) != started:
            self._violation((), "the two policies start the round differently")
            return self.report
        if len(started.timers) != 1:
            self._violation((), f"expected one round-1 timer, got {started.timers}")
            return self.report
        self.timer_id = started.timers[0].timer_id
        self._visit(deadline, faithful, (0,) * len(self.groups), ())
        return self.report

    def _violation(self, order: Tuple[str, ...], detail: str) -> None:
        self.report.violations.append(RefinementViolation(order, detail))

    def _remaining(self, taken: Tuple[int, ...]) -> List[Message]:
        return [ack for group, used in zip(self.groups, taken, strict=True) for ack in group[used:]]

    def _visit(
        self,
        deadline: ClientAutomaton,
        faithful: ClientAutomaton,
        taken: Tuple[int, ...],
        order: Tuple[str, ...],
    ) -> None:
        """Both clients were fed *order* (one order of the reply set *taken*)
        and neither has returned."""
        if taken in self._seen:
            return
        self._seen.add(taken)
        self.report.pending_sets += 1
        self._check_expiry_here(deadline, faithful, taken, order)
        for index, group in enumerate(self.groups):
            if taken[index] == len(group):
                continue
            ack = group[taken[index]]
            next_order = order + (ack.sender,)
            next_taken = taken[:index] + (taken[index] + 1,) + taken[index + 1 :]
            next_deadline = copy.deepcopy(deadline)
            next_faithful = copy.deepcopy(faithful)
            early = next_deadline.handle_message(ack)
            waited = next_faithful.handle_message(ack)
            if not waited.empty:
                self._violation(next_order, f"WAIT acted before its timer: {waited}")
            elif early.completions:
                self.report.early_returns += 1
                self._check_early_return(
                    next_deadline, next_faithful, early, next_taken, next_order
                )
            elif not early.empty:
                self._violation(next_order, f"DEADLINE acted without returning: {early}")
            else:
                self._visit(next_deadline, next_faithful, next_taken, next_order)

    def _check_early_return(
        self,
        deadline: ClientAutomaton,
        faithful: ClientAutomaton,
        early: Effects,
        taken: Tuple[int, ...],
        order: Tuple[str, ...],
    ) -> None:
        at_expiry = faithful.on_timer(self.timer_id)
        if at_expiry.completions != early.completions:
            self._violation(
                order,
                f"DEADLINE returned {early.completions}, WAIT at expiry "
                f"{at_expiry.completions or at_expiry}",
            )
            return
        if not all(completion.fast for completion in early.completions):
            self._violation(order, f"early return is not fast: {early.completions}")
        if early.sends != at_expiry.sends or early.timers != at_expiry.timers:
            self._violation(order, f"besides returning: DEADLINE {early} vs WAIT {at_expiry}")
        if early.cancels != [self.timer_id] or at_expiry.cancels:
            self._violation(
                order,
                f"DEADLINE must cancel exactly {self.timer_id!r}: {early.cancels}",
            )
        if deadline.describe() != faithful.describe():
            self._violation(
                order,
                f"states differ after the return: {deadline.describe()} "
                f"vs {faithful.describe()}",
            )
        # Whatever still arrives — late replies, a timer that raced its
        # cancellation — reaches an idle client.
        for late in (*self._remaining(taken), None):
            effects = _feed(deadline, late, self.timer_id)
            if not effects.empty:
                self._violation(order, f"input after the return was not ignored: {effects}")

    def _check_expiry_here(
        self,
        deadline: ClientAutomaton,
        faithful: ClientAutomaton,
        taken: Tuple[int, ...],
        order: Tuple[str, ...],
    ) -> None:
        """The timer fires now: from here on the policies must not differ."""
        deadline = copy.deepcopy(deadline)
        faithful = copy.deepcopy(faithful)
        for ack in (None, *self._remaining(taken)):
            ours = _feed(deadline, ack, self.timer_id)
            theirs = _feed(faithful, ack, self.timer_id)
            where = "at expiry" if ack is None else f"on {ack.sender}'s ack after expiry"
            if ours != theirs:
                self._violation(order, f"{where}: DEADLINE {ours} vs WAIT {theirs}")
                return
            if ours.cancels:
                self._violation(order, f"{where}: cancelled {ours.cancels}")
        if deadline.describe() != faithful.describe():
            self._violation(order, "states differ after expiry and every late ack")


def check_round_one_refinement(
    make_client: ClientFactory, invoke: Invoke, acks: Sequence[Message]
) -> RefinementReport:
    """Exhaust the arrival orders of *acks*; see the module docstring.

    *acks* holds at most one acknowledgement per server (the first a server
    sends in round 1); servers that stay silent are simply left out.
    """
    return _Walk(make_client, invoke, acks).run()
