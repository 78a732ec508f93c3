"""Deliberately over-eager protocols used to *demonstrate* the upper bound.

Proposition 2 proves that no optimally resilient atomic storage can make every
lucky operation fast beyond ``fw + fr <= t - b``.  The intuition stated in
Section 4 is that "malicious servers may change their state to an arbitrary
one [and] impose on readers a value that was never written, in case the fast
operations skip too many servers".

:class:`NaiveFastProtocol` is the protocol a designer might write when ignoring
that bound: one-round writes that stop at ``S - t`` acknowledgements and
one-round reads that return the highest timestamp reported by *any* server
among ``S - t`` replies — i.e. fast operations that effectively claim
``fw = fr = t``.  The E4 benchmark and the adversarial test suite run it
against the forged-state adversary of run ``r5`` in the proof and show the
atomicity checker catching the violation, while the paper's algorithm under
the very same adversary stays correct.

**Never use these classes as a storage implementation.**  They exist only to
make the impossibility result observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from ..core.automaton import Automaton, ClientAutomaton, Effects, OperationComplete
from ..core.config import SystemConfig
from ..core.messages import (
    CLIENT_BOUND_MESSAGES,
    SERVER_BOUND_MESSAGES,
    BaselineQuery,
    BaselineQueryReply,
    BaselineStore,
    BaselineStoreAck,
    LeaseGrant,
    LeaseRenew,
    LeaseRevoke,
    LeaseRevokeAck,
    Message,
    PreWrite,
    PreWriteAck,
    Read,
    ReadAck,
    TimestampQuery,
    TimestampQueryAck,
    Write,
    WriteAck,
    WriterLeaseGrant,
    WriterLeaseRenew,
    WriterLeaseRevoke,
    WriterLeaseRevokeAck,
)
from ..core.protocol import ProtocolSuite
from ..core.types import INITIAL_PAIR, TimestampValue


class NaiveServer(Automaton):
    """Stores a single pair; answers queries and stores without any vetting."""

    # The adversarial baseline speaks only the baseline dialect.
    DISPATCH_IGNORES = CLIENT_BOUND_MESSAGES + (
        PreWrite,
        Write,
        Read,
        TimestampQuery,
        LeaseRenew,
        LeaseRevokeAck,
        WriterLeaseRenew,
        WriterLeaseRevokeAck,
    )

    def __init__(self, server_id: str, config: SystemConfig, register_id: str = "") -> None:
        super().__init__(server_id, register_id)
        self.config = config
        self.pair: TimestampValue = INITIAL_PAIR

    def handle_message(self, message: Message) -> Effects:
        effects = Effects()
        if isinstance(message, BaselineQuery):
            effects.send(
                message.sender,
                BaselineQueryReply(
                    sender=self.process_id,
                    register_id=self.register_id,
                    op_id=message.op_id,
                    pair=self.pair,
                ),
            )
        elif isinstance(message, BaselineStore):
            if message.pair.ts > self.pair.ts:
                self.pair = message.pair
            effects.send(
                message.sender,
                BaselineStoreAck(
                    sender=self.process_id,
                    register_id=self.register_id,
                    op_id=message.op_id,
                    phase=message.phase,
                ),
            )
        return effects


@dataclass
class _NaiveAttempt:
    op_id: int
    value: Any = None
    replies: Dict[str, TimestampValue] = field(default_factory=dict)
    acks: Set[str] = field(default_factory=set)


class NaiveWriter(ClientAutomaton):
    """One-round writes that stop at ``S - t`` acknowledgements."""

    # Only BaselineStoreAck answers the one-round store.
    DISPATCH_IGNORES = SERVER_BOUND_MESSAGES + (
        PreWriteAck,
        WriteAck,
        TimestampQueryAck,
        ReadAck,
        LeaseGrant,
        LeaseRevoke,
        WriterLeaseGrant,
        WriterLeaseRevoke,
        BaselineQueryReply,
    )

    def __init__(
        self, config: SystemConfig, timer_delay: float = 10.0, register_id: str = ""
    ) -> None:
        super().__init__(config.writer_id, timer_delay=timer_delay, register_id=register_id)
        self.config = config
        self.ts = 0
        self._attempt: Optional[_NaiveAttempt] = None

    def write(self, value: Any) -> Effects:
        self._operation_started()
        self.ts += 1
        self._attempt = _NaiveAttempt(op_id=self._next_op_id(), value=value)
        effects = Effects()
        effects.broadcast(
            self.config.server_ids(),
            BaselineStore(
                sender=self.process_id,
                register_id=self.register_id,
                op_id=self._attempt.op_id,
                pair=TimestampValue(self.ts, value),
                phase=1,
            ),
        )
        return effects

    def handle_message(self, message: Message) -> Effects:
        attempt = self._attempt
        if attempt is None or not isinstance(message, BaselineStoreAck):
            return Effects()
        if message.op_id != attempt.op_id:
            return Effects()
        attempt.acks.add(message.sender)
        if len(attempt.acks) < self.config.round_quorum:
            return Effects()
        self._attempt = None
        self._operation_finished()
        effects = Effects()
        effects.complete(
            OperationComplete(
                op_id=attempt.op_id,
                kind="write",
                value=attempt.value,
                rounds=1,
                fast=True,
                metadata=dict(self._address),
            )
        )
        return effects


class NaiveReader(ClientAutomaton):
    """One-round reads returning the highest timestamp among ``S - t`` replies.

    No ``b + 1`` confirmation, no validation, no write-back: a single malicious
    server can impose an arbitrary value, which is precisely the failure mode
    the upper-bound proof exploits.
    """

    # No write-back round, so not even BaselineStoreAck is consumed.
    DISPATCH_IGNORES = SERVER_BOUND_MESSAGES + (
        PreWriteAck,
        WriteAck,
        TimestampQueryAck,
        ReadAck,
        LeaseGrant,
        LeaseRevoke,
        WriterLeaseGrant,
        WriterLeaseRevoke,
        BaselineStoreAck,
    )

    def __init__(
        self,
        reader_id: str,
        config: SystemConfig,
        timer_delay: float = 10.0,
        register_id: str = "",
    ) -> None:
        super().__init__(reader_id, timer_delay=timer_delay, register_id=register_id)
        self.config = config
        self._attempt: Optional[_NaiveAttempt] = None

    def read(self) -> Effects:
        self._operation_started()
        self._attempt = _NaiveAttempt(op_id=self._next_op_id())
        effects = Effects()
        effects.broadcast(
            self.config.server_ids(),
            BaselineQuery(
                sender=self.process_id, register_id=self.register_id, op_id=self._attempt.op_id
            ),
        )
        return effects

    def handle_message(self, message: Message) -> Effects:
        attempt = self._attempt
        if attempt is None or not isinstance(message, BaselineQueryReply):
            return Effects()
        if message.op_id != attempt.op_id:
            return Effects()
        attempt.replies[message.sender] = message.pair
        if len(attempt.replies) < self.config.round_quorum:
            return Effects()
        selected = max(attempt.replies.values(), key=lambda pair: pair.ts)
        self._attempt = None
        self._operation_finished()
        effects = Effects()
        effects.complete(
            OperationComplete(
                op_id=attempt.op_id,
                kind="read",
                value=selected.val,
                rounds=1,
                fast=True,
                metadata={"ts": selected.ts, **self._address},
            )
        )
        return effects


class NaiveFastProtocol(ProtocolSuite):
    """The over-eager protocol: every operation fast, no safeguards.

    Exists solely so benchmarks and tests can exhibit the atomicity violation
    predicted by Proposition 2.
    """

    name = "naive-fast (UNSAFE)"
    consistency = "none"

    def create_server(self, server_id: str, *, register_id: str = "") -> NaiveServer:
        return NaiveServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> NaiveWriter:
        return NaiveWriter(self.config, timer_delay=self.timer_delay, register_id=register_id)

    def create_reader(self, reader_id: str, *, register_id: str = "") -> NaiveReader:
        return NaiveReader(
            reader_id, self.config, timer_delay=self.timer_delay, register_id=register_id
        )


@dataclass
class ForgeQueryReplyStrategy:
    """A Byzantine strategy for query/store protocols (naive and ABD).

    Replies to :class:`BaselineQuery` messages with a forged, never-written
    pair carrying an enormous timestamp; everything else is answered honestly.
    Compatible with :class:`repro.sim.byzantine.MaliciousServer`.
    """

    name = "forge-query-reply"
    forged_pair: TimestampValue = field(
        default_factory=lambda: TimestampValue(10**9, "NEVER-WRITTEN")
    )

    def respond(self, inner: Automaton, message: Message) -> Optional[Effects]:
        if not isinstance(message, BaselineQuery):
            return None
        effects = Effects()
        effects.send(
            message.sender,
            BaselineQueryReply(
                sender=inner.process_id,
                register_id=inner.register_id,
                op_id=message.op_id,
                pair=self.forged_pair,
            ),
        )
        return effects

    def describe(self) -> dict:
        return {"strategy": self.name, "forged_pair": repr(self.forged_pair)}
