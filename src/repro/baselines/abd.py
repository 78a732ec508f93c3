"""The ABD baseline: Attiya, Bar-Noy and Dolev's SWMR atomic storage [2].

ABD tolerates *crash* failures only (``b = 0``) with ``S = 2t + 1`` servers.
Every WRITE is one round (store at a majority); every READ is two rounds
(query a majority for the highest timestamp, then write that pair back to a
majority before returning).  The paper uses ABD as the canonical example of a
robust storage whose reads always need two round-trips — the motivation for
asking when reads (and writes) can be expedited to a single round-trip.

This implementation runs over the same sans-I/O automaton interface as the
core algorithm so that the benchmark harness can compare them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from ..core.automaton import (
    Automaton,
    ClientAutomaton,
    Effects,
    OperationComplete,
    completion_flags,
)
from ..core.config import ConfigurationError, SystemConfig
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


class ABDServer(Automaton):
    """An ABD replica: stores the highest timestamped pair it has seen."""

    # The baseline speaks only the BaselineQuery/BaselineStore dialect; the
    # core protocol's phases and leases never address it.
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

    def describe(self) -> dict:
        return {"process_id": self.process_id, "pair": self.pair}


@dataclass
class _ABDWriteAttempt:
    op_id: int
    value: Any
    ts: int
    acks: Set[str] = field(default_factory=set)


@dataclass
class _ABDReadAttempt:
    op_id: int
    phase: int = 1
    replies: Dict[str, TimestampValue] = field(default_factory=dict)
    acks: Set[str] = field(default_factory=set)
    selected: Optional[TimestampValue] = None


class ABDWriter(ClientAutomaton):
    """The ABD writer: one store round per WRITE."""

    # Only BaselineStoreAck answers the writer's store round.
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
        self._attempt: Optional[_ABDWriteAttempt] = None

    def write(self, value: Any) -> Effects:
        self._operation_started()
        self.ts += 1
        self._attempt = _ABDWriteAttempt(
            op_id=self._next_op_id(), value=value, ts=self.ts
        )
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
        if message.op_id != attempt.op_id or message.phase != 1:
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
                ts=attempt.ts,
                register_id=self.register_id,
            )
        )
        return effects


class ABDReader(ClientAutomaton):
    """The ABD reader: query round followed by a write-back round."""

    #: Whether a read writes the pair it selected back to a majority before
    #: returning it; the over-eager reader of :mod:`repro.bench.adversary`
    #: returns it straight after the query round.
    WRITEBACK = True

    # The reader consumes query replies and write-back store acks only.
    DISPATCH_IGNORES = SERVER_BOUND_MESSAGES + (
        PreWriteAck,
        WriteAck,
        TimestampQueryAck,
        ReadAck,
        LeaseGrant,
        LeaseRevoke,
        WriterLeaseGrant,
        WriterLeaseRevoke,
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
        self._attempt: Optional[_ABDReadAttempt] = None

    def read(self) -> Effects:
        self._operation_started()
        self._attempt = _ABDReadAttempt(op_id=self._next_op_id())
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
        if attempt is None:
            return Effects()
        if isinstance(message, BaselineQueryReply):
            return self._on_query_reply(message)
        if isinstance(message, BaselineStoreAck):
            return self._on_store_ack(message)
        return Effects()

    def _on_query_reply(self, message: BaselineQueryReply) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        if attempt.phase != 1 or message.op_id != attempt.op_id:
            return Effects()
        attempt.replies[message.sender] = message.pair
        if len(attempt.replies) < self.config.round_quorum:
            return Effects()
        attempt.selected = max(attempt.replies.values(), key=lambda pair: pair.ts)
        if not self.WRITEBACK:
            return self._complete(attempt, rounds=1)
        attempt.phase = 2
        effects = Effects()
        effects.broadcast(
            self.config.server_ids(),
            BaselineStore(
                sender=self.process_id,
                register_id=self.register_id,
                op_id=attempt.op_id,
                pair=attempt.selected,
                phase=2,
            ),
        )
        return effects

    def _on_store_ack(self, message: BaselineStoreAck) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        if attempt.phase != 2 or message.op_id != attempt.op_id or message.phase != 2:
            return Effects()
        attempt.acks.add(message.sender)
        if len(attempt.acks) < self.config.round_quorum:
            return Effects()
        return self._complete(attempt, rounds=2)

    def _complete(self, attempt: _ABDReadAttempt, rounds: int) -> Effects:
        self._attempt = None
        self._operation_finished()
        selected = attempt.selected
        assert selected is not None
        effects = Effects()
        effects.complete(
            OperationComplete(
                op_id=attempt.op_id,
                kind="read",
                value=selected.val,
                rounds=rounds,
                fast=rounds == 1,
                ts=selected.ts,
                register_id=self.register_id,
                flags=completion_flags(writeback=self.WRITEBACK),
            )
        )
        return effects


class ABDProtocol(ProtocolSuite):
    """Protocol suite for the ABD baseline (crash-only, ``b = 0``)."""

    name = "abd-crash-only"
    consistency = "atomic"

    def __init__(self, config: SystemConfig, timer_delay: float = 10.0) -> None:
        if config.b != 0:
            raise ConfigurationError(
                "ABD tolerates crash failures only; construct its config with b=0 "
                "(e.g. SystemConfig.crash_only(t))"
            )
        super().__init__(config, timer_delay=timer_delay)

    def create_server(self, server_id: str, *, register_id: str = "") -> ABDServer:
        return ABDServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> ABDWriter:
        return ABDWriter(self.config, timer_delay=self.timer_delay, register_id=register_id)

    def create_reader(self, reader_id: str, *, register_id: str = "") -> ABDReader:
        return ABDReader(
            reader_id, self.config, timer_delay=self.timer_delay, register_id=register_id
        )
