"""Sans-I/O building blocks shared by every protocol role.

All clients and servers in this library are *automata*: they consume a message
(or a timer expiration) and emit :class:`Effects` — messages to send, timers to
start and, for clients, operation completions.  The discrete-event simulator
(:mod:`repro.sim`) and the asyncio runtime (:mod:`repro.runtime`) both drive
these automata, so the protocol logic is written once and exercised under both
deterministic virtual time and real wall-clock time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .messages import Message
from .types import slot_init

#: Separator between a register id and the rest of a timer id:
#: ``"<register>::<timer>"``.  Register ids therefore must not contain it.
TIMER_SEPARATOR = "::"


def timer_namespace(register_id: str) -> str:
    """What every timer id armed by an automaton of *register_id* starts
    with; the paper's single register (``""``) arms bare ids."""
    return f"{register_id}{TIMER_SEPARATOR}" if register_id else ""


class TimerPolicy(enum.Enum):
    """What the round-1 timer of a WRITE (Fig. 1 l.5) or READ (Fig. 2 l.17) means.

    The timer never carries safety: asynchrony may already present any
    ``>= S - t`` subset of replies when it expires, so every decision a client
    takes on such a subset is one the paper's algorithm admits.  The policies
    differ only in *when* a round that is already decidable is decided:

    ``WAIT``
        Paper-faithful: the round ends when ``S - t`` replies are in **and**
        the timer expired — a lucky operation sits out the whole timer.
    ``DEADLINE``
        The default.  The operation returns on the reply that makes it fast;
        the timer is cancelled.  If it fires first, the round is evaluated
        exactly as under ``WAIT`` — the timer is the deadline after which the
        slow path starts, not a wait.
    ``NONE``
        No timer is armed: the round ends on ``S - t`` replies.  Gives up the
        fast path's margin (``S - fw`` acks rarely beat ``S - t``); used by the
        always-slow baseline and the two-round writer, which have no fast path.
    """

    WAIT = "wait"
    DEADLINE = "deadline"
    NONE = "none"


@slot_init
@dataclass(frozen=True, slots=True)
class Send:
    """An instruction to deliver *message* to the process *destination*."""

    destination: str
    message: Message


@slot_init
@dataclass(frozen=True, slots=True)
class StartTimer:
    """An instruction to fire :meth:`Automaton.on_timer` after *delay* time units."""

    timer_id: str
    delay: float


#: A completion's flags: ``(key, value)`` pairs, one shared tuple per
#: combination (see :func:`completion_flags`).
Flags = Tuple[Tuple[str, Any], ...]


@lru_cache(maxsize=None)
def completion_flags(**flags: Any) -> Flags:
    """The reader or writer flags of one completion (``writeback``,
    ``lease``, ``pw_acks`` …) as the one shared tuple of that combination.

    The combinations are few and their values small, so a retained
    completion points at a tuple every other completion with the same
    outcome shares, where it used to own a dict.  Each key always takes
    values of one type, so ``True == 1`` never merges two combinations.
    """
    return tuple(flags.items())


@slot_init
@dataclass(slots=True)
class OperationComplete:
    """Emitted by a client automaton when an invoked operation returns.

    Attributes
    ----------
    op_id:
        Client-local operation sequence number.
    kind:
        ``"write"`` or ``"read"``.
    value:
        The written value (writes) or the returned value (reads).
    rounds:
        Number of communication round-trips the operation used.  ``rounds == 1``
        means the operation was *fast* in the paper's sense.
    fast:
        Convenience flag, equivalent to ``rounds == 1``.
    ts, writer_id:
        The timestamp pair the operation wrote or returned (``None`` / ``""``
        where the protocol has none, e.g. the SWMR writer id).
    register_id:
        The register it answers (``""``: the paper's single register); the
        host's operation slot is keyed by it.
    latency_s:
        Wall-clock latency, stamped by the asyncio client node when it
        resolves the operation (``None`` on the simulator).
    flags:
        The reader's or writer's outcome flags (:func:`completion_flags`).
    details:
        Anything else one protocol reports (a conditional's observation, a
        malicious reader's mark), or ``None``.

    :attr:`metadata` shows all of these as one read-only mapping, keyed as
    the protocol reported them; an absent ``ts``, an empty ``writer_id`` or
    ``register_id`` and an unset ``latency_s`` are left out of it.
    """

    op_id: int
    kind: str
    value: Any
    rounds: int
    fast: bool
    ts: Optional[int] = None
    writer_id: str = ""
    register_id: str = ""
    latency_s: Optional[float] = None
    flags: Flags = ()
    details: Optional[Mapping[str, Any]] = None

    @property
    def metadata(self) -> Mapping[str, Any]:
        """Every per-protocol detail as one read-only mapping, built on access."""
        items: Dict[str, Any] = {} if self.ts is None else {"ts": self.ts}
        items.update(self.flags)
        if self.writer_id:
            items["writer_id"] = self.writer_id
        if self.details:
            items.update(self.details)
        if self.register_id:
            items["register_id"] = self.register_id
        if self.latency_s is not None:
            items["latency_s"] = self.latency_s
        return MappingProxyType(items)


@slot_init
@dataclass(slots=True)
class Effects:
    """Everything an automaton wants the runtime to do after one input.

    ``cancels`` lists timer ids to disarm before they fire.  Both runtimes
    process arms before cancels, so an :class:`Effects` carrying a start and
    a cancel of the same id nets out to no pending timer; cancelling an id
    that already fired (or was never armed) is a no-op.
    """

    sends: List[Send] = field(default_factory=list)
    timers: List[StartTimer] = field(default_factory=list)
    completions: List[OperationComplete] = field(default_factory=list)
    cancels: List[str] = field(default_factory=list)

    def send(self, destination: str, message: Message) -> None:
        self.sends.append(Send(destination, message))

    def broadcast(self, destinations: Sequence[str], message: Message) -> None:
        for destination in destinations:
            self.sends.append(Send(destination, message))

    def start_timer(self, timer_id: str, delay: float) -> None:
        self.timers.append(StartTimer(timer_id, delay))

    def cancel_timer(self, timer_id: str) -> None:
        """Disarm a pending timer of this automaton (no-op if it fired)."""
        self.cancels.append(timer_id)

    def complete(self, completion: OperationComplete) -> None:
        self.completions.append(completion)

    def merge(self, other: "Effects") -> "Effects":
        """Append *other*'s effects to this one (returns ``self``)."""
        self.sends.extend(other.sends)
        self.timers.extend(other.timers)
        self.completions.extend(other.completions)
        self.cancels.extend(other.cancels)
        return self

    @property
    def empty(self) -> bool:
        return not (self.sends or self.timers or self.completions or self.cancels)


class Automaton:
    """Base class for every protocol role (writer, reader, server).

    ``register_id`` is the register the automaton runs (``""``: the paper's
    single register).  An automaton is born addressed: every message it
    builds carries the id, every timer id it arms starts with
    :func:`timer_namespace` of it, and every completion names it in its
    metadata — so a register router passes its effects on untouched.
    """

    def __init__(self, process_id: str, register_id: str = "") -> None:
        self.process_id = process_id
        self.register_id = register_id

    # -- inputs -------------------------------------------------------------
    def handle_message(self, message: Message) -> Effects:
        """Process one incoming message; default implementation ignores it."""
        return Effects()

    def on_timer(self, timer_id: str) -> Effects:
        """Process a timer expiration; default implementation ignores it."""
        return Effects()

    # -- diagnostics ---------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Structured snapshot of the automaton's state (for traces/tests)."""
        return {"process_id": self.process_id}


class ClientAutomaton(Automaton):
    """Base class for client roles; adds invocation bookkeeping.

    Concrete clients implement :meth:`_begin_operation` and keep at most one
    operation outstanding at a time (the paper's well-formedness assumption,
    Section 2.2).
    """

    def __init__(self, process_id: str, timer_delay: float = 10.0, register_id: str = "") -> None:
        super().__init__(process_id, register_id)
        self.timer_delay = timer_delay
        self._op_counter = 0
        self._busy = False
        self._timer_stem = f"{timer_namespace(register_id)}{process_id}/op"

    @property
    def busy(self) -> bool:
        """Whether an operation is currently outstanding."""
        return self._busy

    def _next_op_id(self) -> int:
        self._op_counter += 1
        return self._op_counter

    def _operation_started(self) -> None:
        if self._busy:
            raise RuntimeError(
                f"client {self.process_id} invoked an operation while another "
                "is still outstanding (violates well-formedness)"
            )
        self._busy = True

    def _operation_finished(self) -> None:
        self._busy = False

    def _timer_id(self, op_id: int, label: str) -> str:
        return f"{self._timer_stem}{op_id}/{label}"


#: Operation kind -> (the client-automaton method that invokes it, whether its
#: last argument is the value the operation writes).  An RMW's written value is
#: only known at completion, a read writes nothing.
_OPERATIONS: Dict[str, Tuple[str, bool]] = {
    "write": ("write", True),
    "read": ("read", False),
    "cas": ("compare_and_swap", True),
    "rmw": ("read_modify_write", False),
}


def invoke_operation(
    client: Any, kind: str, register_id: Optional[str], args: Sequence[Any]
) -> Tuple[Effects, Any]:
    """Invoke operation *kind* on *client*; returns ``(effects, requested value)``.

    The one invocation both runtimes go through.  ``register_id=None`` is the
    paper's single register — ``client.write(value)`` / ``client.read()`` —
    and a key addresses one register of a sharded client, which takes it as
    its first argument: ``client.write(key, value)``.
    """
    method, writes_last_argument = _OPERATIONS[kind]
    invoke = getattr(client, method)
    effects = invoke(*args) if register_id is None else invoke(register_id, *args)
    return effects, args[-1] if writes_last_argument else None
