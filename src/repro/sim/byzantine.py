"""Malicious (Byzantine) server behaviours.

A malicious server may deviate arbitrarily from the protocol: forge values,
replay stale state, answer different clients differently, or stay silent.  It
cannot, however, interfere with channels between non-malicious processes
(Section 2.1), and it cannot speak as another process: the receiving host
steps a message only if its ``sender`` is the process the channel delivered
it from (:meth:`~repro.core.host.ProcessHost.deliver`), so whatever a
strategy forges counts as the malicious server's own vote or not at all.

Every strategy wraps an *honest* server automaton.  The wrapper keeps the
honest automaton's state up to date (so strategies such as "answer honestly to
the writer but lie to readers" are expressible) and lets the strategy decide,
message by message, whether to reply honestly, reply with forged content, or
not reply at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Set

from ..core.automaton import Automaton, Effects, Send
from ..core.config import SystemConfig
from ..core.messages import (
    Message,
    Read,
    ReadAck,
)
from ..core.server import StorageServer
from ..core.types import INITIAL_PAIR, FrozenEntry, TimestampValue


def check_byzantine_servers(byzantine_ids: Iterable[str], config: SystemConfig) -> None:
    """Reject a Byzantine set the model forbids: an id that is not a server,
    or more than ``b`` of them."""
    byzantine = set(byzantine_ids)
    unknown = byzantine - set(config.server_ids())
    if unknown:
        raise ValueError(f"byzantine ids are not servers: {sorted(unknown)}")
    if len(byzantine) > config.b:
        raise ValueError(
            f"{len(byzantine)} Byzantine servers exceed the model bound b={config.b}"
        )


def _forged_read_ack(
    inner: StorageServer,
    message: Read,
    pw: TimestampValue,
    w: TimestampValue,
    vw: TimestampValue,
    frozen: FrozenEntry,
) -> Effects:
    """Answer *message* with a ``ReadAck`` reporting the given state."""
    effects = Effects()
    effects.send(
        message.sender,
        ReadAck(
            sender=inner.process_id,
            register_id=inner.register_id,
            read_ts=message.read_ts,
            round=message.round,
            pw=pw,
            w=w,
            vw=vw,
            frozen=frozen,
        ),
    )
    return effects


class ByzantineStrategy:
    """Decides how a malicious server responds to each incoming message."""

    name = "abstract"

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        """Return forged effects, or ``None`` to let the honest reply through."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"strategy": self.name}


class MaliciousServer(Automaton):
    """A server controlled by a :class:`ByzantineStrategy`.

    The inner honest automaton is always fed every message first so its state
    reflects what an honest server would know; the strategy then chooses the
    outgoing reply.  The register is the inner automaton's.
    """

    def __init__(self, inner: StorageServer, strategy: ByzantineStrategy) -> None:
        super().__init__(inner.process_id, inner.register_id)
        self.inner = inner
        self.strategy = strategy

    def handle_message(self, message: Message) -> Effects:
        honest_effects = self.inner.handle_message(message)
        forged = self.strategy.respond(self.inner, message)
        if forged is None:
            return honest_effects
        return self._addressed(forged)

    def _addressed(self, forged: Effects) -> Effects:
        """Address what the strategy emits to this server's register.

        A strategy is adversarial code and need not stamp its messages, so
        this is the one place left that copies a message to address it —
        paid by Byzantine servers only.
        """
        register_id = self.register_id
        for index, send in enumerate(forged.sends):
            if send.message.register_id != register_id:
                message = replace(send.message, register_id=register_id)
                forged.sends[index] = Send(send.destination, message)
        return forged

    def describe(self) -> dict:
        info = self.inner.describe()
        info["byzantine"] = self.strategy.describe()
        return info


# --------------------------------------------------------------------------- #
# Concrete strategies
# --------------------------------------------------------------------------- #


@dataclass
class MuteStrategy(ByzantineStrategy):
    """Never replies to anything (indistinguishable from a crash)."""

    name = "mute"

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        return Effects()


@dataclass
class ForgeHighTimestampStrategy(ByzantineStrategy):
    """Tries to make readers return a value that was never written.

    Replies to READ messages with a fabricated pair carrying an enormous
    timestamp; acknowledges writer messages honestly so it does not slow the
    writer down (staying covert).  The atomicity proofs show a single value
    needs ``b + 1`` confirmations, so up to ``b`` such servers are harmless.
    """

    name = "forge-high-timestamp"
    forged_value: object = "FORGED"
    forged_ts: int = 10**9

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        if not isinstance(message, Read):
            return None
        forged = TimestampValue(self.forged_ts, self.forged_value)
        return _forged_read_ack(
            inner, message, forged, forged, forged, FrozenEntry(forged, message.read_ts)
        )


@dataclass
class StaleReplayStrategy(ByzantineStrategy):
    """Always reports the state it had at the beginning of the run.

    At the beginning of the run every server holds ``<ts0, ⊥>`` in all of its
    registers, so the strategy simply replays that initial state forever: the
    "try to make readers return an old value" attack.  The ``safe`` /
    ``invalidw`` / ``invalidpw`` thresholds are exactly what defeats it.
    """

    name = "stale-replay"

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        if isinstance(message, Read):
            initial = INITIAL_PAIR
            return _forged_read_ack(inner, message, initial, initial, initial, FrozenEntry())
        return None


@dataclass
class TwoFacedStrategy(ByzantineStrategy):
    """Plays the protocol honestly towards some clients and lies to the rest.

    This is the behaviour of server ``B2`` in the run ``r4`` of the upper-bound
    proof (Proposition 2): honest towards the writer and the first reader,
    amnesiac towards everyone else.
    """

    name = "two-faced"
    honest_towards: Set[str] = field(default_factory=set)
    lie: ByzantineStrategy = field(default_factory=StaleReplayStrategy)

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        if message.sender in self.honest_towards:
            return None
        return self.lie.respond(inner, message)


@dataclass
class ForgedStateStrategy(ByzantineStrategy):
    """Pretends a given pair was (pre-)written even though it never was.

    This is server ``B1`` in run ``r5`` of the upper-bound proof: it forges its
    state to ``σ1`` — the state it would have had, had it received the WRITE's
    first-round message.
    """

    name = "forged-state"
    forged_pair: TimestampValue = TimestampValue(1, "NEVER-WRITTEN")
    include_w: bool = False
    include_vw: bool = False

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        if isinstance(message, Read):
            return _forged_read_ack(
                inner,
                message,
                self.forged_pair,
                self.forged_pair if self.include_w else inner.w,
                self.forged_pair if self.include_vw else inner.vw,
                inner.frozen.get(message.sender, FrozenEntry()),
            )
        return None


@dataclass
class EquivocationStrategy(ByzantineStrategy):
    """Reports a different fabricated value to every distinct reader."""

    name = "equivocate"
    forged_ts: int = 10**6
    _per_reader: Dict[str, TimestampValue] = field(default_factory=dict)

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        if not isinstance(message, Read):
            return None
        pair = self._per_reader.setdefault(
            message.sender,
            TimestampValue(self.forged_ts, f"FORGED-for-{message.sender}"),
        )
        frozen = FrozenEntry(pair, message.read_ts)
        return _forged_read_ack(inner, message, pair, pair, pair, frozen)


@dataclass
class DelayedHonestyStrategy(ByzantineStrategy):
    """Honest, except it drops the first *drop_count* messages it receives.

    Useful to build executions where a malicious server is "slow" without being
    detectably wrong — stressing the fast-path quorums.
    """

    name = "delayed-honesty"
    drop_count: int = 1
    _seen: int = 0

    def respond(self, inner: StorageServer, message: Message) -> Optional[Effects]:
        self._seen += 1
        if self._seen <= self.drop_count:
            return Effects()
        return None


STRATEGIES = {
    cls.name: cls
    for cls in (
        MuteStrategy,
        ForgeHighTimestampStrategy,
        StaleReplayStrategy,
        TwoFacedStrategy,
        ForgedStateStrategy,
        EquivocationStrategy,
        DelayedHonestyStrategy,
    )
}


def make_strategy(name: str, **kwargs) -> ByzantineStrategy:
    """Instantiate a strategy by name (used by the CLI and workload configs)."""
    try:
        cls = STRATEGIES[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown Byzantine strategy {name!r}; known: {sorted(STRATEGIES)}"
        ) from exc
    return cls(**kwargs)
