"""Protocol messages.

One dataclass per message of Figures 1-3 (and reused by the Appendix C and D
variants as well as the baselines).  Every message records its logical sender
so that state machines never have to trust transport metadata; the simulator's
Byzantine strategies may of course forge the field, exactly as a malicious
server can in the paper's model (it cannot, however, inject messages into
channels between two non-malicious processes — the transports enforce that).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Callable, Sequence, Tuple, Type

from .types import (
    FrozenEntry,
    FreezeDirective,
    NewReadReport,
    SlotsPickleMixin,
    TimestampValue,
    slot_init,
)


@slot_init
@dataclass(frozen=True, slots=True)
class Message(SlotsPickleMixin):
    """Base class for every protocol message.

    Every message class is a ``slots=True`` dataclass under
    :func:`~repro.core.types.slot_init`: the automaton hot loop allocates one
    instance per send/delivery, dict-less instances are smaller, and an
    ``__init__`` that stores each field through its slot is faster to
    construct (``tests/unit/test_messages.py`` holds the hierarchy to this).

    ``register_id`` multiplexes many independent register instances over one
    server fleet and transport (the sharded store of :mod:`repro.store`).
    The automaton that builds a message stamps its own register here
    (:class:`~repro.core.automaton.Automaton`); the single-register
    deployments of the paper leave it at the default ``""``.

    ``epoch`` is the sender's *incarnation number*: durable servers bump it on
    every crash-recovery and stamp it on their outgoing messages, so a client
    with an operation pending across the crash can reject acknowledgements the
    pre-crash incarnation sent before the WAL made the acked state durable.
    Processes that never recover keep the default ``0``.
    """

    sender: str
    register_id: str = ""
    epoch: int = 0

    def with_epoch(self, epoch: int) -> "Message":
        """A copy of this message stamped with the sender incarnation *epoch*."""
        if self.epoch == epoch:
            return self
        return _readdresser(type(self))(self, epoch)

    @property
    def kind(self) -> str:
        """Short name used in traces and transport framing."""
        return type(self).__name__


_Readdresser = Callable[[Message, int], Message]


@functools.cache
def _readdresser(cls: Type[Message]) -> _Readdresser:
    """``(message, epoch) -> copy`` for class *cls*, generated once: a
    recovered durable process re-stamps every message it sends, too often
    for the field lookups of ``dataclasses.replace``."""
    body = "".join(f", m.{f.name}" for f in fields(cls)[3:])
    copy: _Readdresser = eval(
        f"lambda m, epoch: cls(m.sender, m.register_id, epoch{body})", {"cls": cls}
    )
    return copy


# --------------------------------------------------------------------------- #
# Writer <-> server messages (Fig. 1 / Fig. 3)
# --------------------------------------------------------------------------- #


@slot_init
@dataclass(frozen=True, slots=True)
class PreWrite(Message):
    """``PW <ts, pw, w, frozen>`` — first round of a WRITE (Fig. 1, line 4)."""

    ts: int = 0
    pw: TimestampValue = TimestampValue(0)
    w: TimestampValue = TimestampValue(0)
    frozen: Tuple[FreezeDirective, ...] = ()


@slot_init
@dataclass(frozen=True, slots=True)
class PreWriteAck(Message):
    """``PW_ACK <ts, newread>`` — server reply to a PreWrite (Fig. 3, line 8)."""

    ts: int = 0
    newread: Tuple[NewReadReport, ...] = ()


@slot_init
@dataclass(frozen=True, slots=True)
class Write(Message):
    """``W <round, ts, pw>`` — W-phase round or reader write-back round.

    ``frozen`` is only populated by the Appendix C variant, whose writer sends
    freeze directives in the W message instead of the PW message (Fig. 6).
    """

    round: int = 2
    ts: int = 0
    pair: TimestampValue = TimestampValue(0)
    frozen: Tuple[FreezeDirective, ...] = ()
    from_writer: bool = True


@slot_init
@dataclass(frozen=True, slots=True)
class WriteAck(Message):
    """``WRITE_ACK <round, ts>`` — server reply to a W / write-back message.

    ``from_writer`` echoes the W message's flag, so a client hosting *both* a
    writer and a reader automaton on the same register (the MWMR composite
    client) can route the acknowledgement to the role that sent the round.
    """

    round: int = 2
    ts: int = 0
    from_writer: bool = True


@slot_init
@dataclass(frozen=True, slots=True)
class TimestampQuery(Message):
    """``TS_QUERY <op>`` — read phase of an MWMR WRITE.

    A multi-writer WRITE first queries every server for the highest pair it
    stores; the writer then writes ``(max_ts + 1, writer_id)``.  Single-writer
    deployments never send this message (the lone writer already knows its own
    latest timestamp), which is what keeps the SWMR lucky write one round.
    """

    op_id: int = 0


@slot_init
@dataclass(frozen=True, slots=True)
class TimestampQueryAck(Message):
    """``TS_QUERY_ACK <op, pw, w>`` — server reply to a :class:`TimestampQuery`."""

    op_id: int = 0
    pw: TimestampValue = TimestampValue(0)
    w: TimestampValue = TimestampValue(0)


# --------------------------------------------------------------------------- #
# Reader <-> server messages (Fig. 2 / Fig. 3)
# --------------------------------------------------------------------------- #


@slot_init
@dataclass(frozen=True, slots=True)
class Read(Message):
    """``READ <tsr, rnd>`` — one round of a READ (Fig. 2, line 16)."""

    read_ts: int = 0
    round: int = 1


@slot_init
@dataclass(frozen=True, slots=True)
class ReadAck(Message):
    """``READ_ACK <tsr, rnd, pw, w, vw, frozen_rj>`` (Fig. 3, line 11)."""

    read_ts: int = 0
    round: int = 1
    pw: TimestampValue = TimestampValue(0)
    w: TimestampValue = TimestampValue(0)
    vw: TimestampValue = TimestampValue(0)
    frozen: FrozenEntry = FrozenEntry()


# --------------------------------------------------------------------------- #
# Read-lease messages (the zero-round read extension, :mod:`repro.lease`)
# --------------------------------------------------------------------------- #


@slot_init
@dataclass(frozen=True, slots=True)
class LeaseRenew(Message):
    """``LEASE_RENEW <lease, dur>`` — acquire or renew a per-register read lease.

    Sent by a reader to every server, either alongside the round-1 ``READ`` of
    a fallback read (initial acquisition) or on its own (renewal of a held
    lease).  ``lease_id`` is a reader-local sequence number identifying this
    lease instance; ``duration`` is the validity window in protocol time
    units, measured by the *reader* from the moment the request is sent and by
    the *server* from the moment it grants — the reader's window is therefore
    always the shorter one, which is what makes local expiry safe.
    """

    lease_id: int = 0
    duration: float = 0.0


@slot_init
@dataclass(frozen=True, slots=True)
class LeaseGrant(Message):
    """``LEASE_GRANT <lease, dur, observed>`` — a server's lease promise.

    By granting, the server promises to *withhold* every acknowledgement that
    could complete a newer write (or expose newer state to another reader's
    fast path) until the holder confirmed revocation or the lease expired.
    ``observed`` is the highest ``(ts, writer_id)`` pair the server currently
    stores: the reader counts a grant towards its lease quorum only when
    ``observed`` does not exceed the pair it caches, so a grant issued *after*
    a newer write touched the server can never vouch for stale state.
    """

    lease_id: int = 0
    duration: float = 0.0
    observed: TimestampValue = TimestampValue(0)


@slot_init
@dataclass(frozen=True, slots=True)
class LeaseRevoke(Message):
    """``LEASE_REVOKE <lease>`` — server tells a holder its lease is void.

    Sent when a write reaches a server with active leases; the server keeps
    the write's acknowledgement withheld until the holder answers with a
    :class:`LeaseRevokeAck` (or the lease expires), so the write cannot
    complete while anyone still serves reads from the revoked lease.
    """

    lease_id: int = 0


@slot_init
@dataclass(frozen=True, slots=True)
class LeaseRevokeAck(Message):
    """``LEASE_REVOKE_ACK <lease>`` — holder confirms it stopped serving."""

    lease_id: int = 0


# --------------------------------------------------------------------------- #
# Writer-lease messages (the 1-round MWMR write extension, :mod:`repro.lease`)
# --------------------------------------------------------------------------- #


@slot_init
@dataclass(frozen=True, slots=True)
class WriterLeaseRenew(Message):
    """``WLEASE_RENEW <lease, dur>`` — acquire or renew a per-register writer lease.

    Sent by an MWMR writer to every server, either alongside the ``TS_QUERY``
    round of a fallback write (initial acquisition) or on its own (renewal of
    a held lease).  ``lease_id`` is a writer-local sequence number; the
    duration semantics mirror :class:`LeaseRenew` — the writer measures its
    validity window from the send, the server from the grant, so the holder's
    window is always the shorter one and local expiry is safe.
    """

    lease_id: int = 0
    duration: float = 0.0


@slot_init
@dataclass(frozen=True, slots=True)
class WriterLeaseGrant(Message):
    """``WLEASE_GRANT <lease, dur, observed>`` — a server's writer-lease promise.

    By granting, the server promises to *withhold* every ``TS_QUERY``
    acknowledgement (parking the query) from any other writer until the holder
    confirmed revocation or the lease expired.  ``observed`` is the highest
    ``(ts, writer_id)`` pair the server currently stores: the writer counts a
    grant towards its lease quorum only when ``observed`` does not exceed the
    pair it caches, so a grant issued *after* a competing write touched the
    server can never vouch for a stale timestamp cache.
    """

    lease_id: int = 0
    duration: float = 0.0
    observed: TimestampValue = TimestampValue(0)


@slot_init
@dataclass(frozen=True, slots=True)
class WriterLeaseRevoke(Message):
    """``WLEASE_REVOKE <lease>`` — server tells a holder its writer lease is void.

    Sent when a competing writer's ``TS_QUERY`` (or direct write round)
    reaches a server with an active writer lease; the server keeps the
    competitor's query parked until the holder answers with a
    :class:`WriterLeaseRevokeAck` (or the lease expires), so no competing
    write can pick a timestamp while the holder still writes from its cache.
    """

    lease_id: int = 0


@slot_init
@dataclass(frozen=True, slots=True)
class WriterLeaseRevokeAck(Message):
    """``WLEASE_REVOKE_ACK <lease>`` — holder confirms it dropped its cache."""

    lease_id: int = 0


# --------------------------------------------------------------------------- #
# Transport-level envelope
# --------------------------------------------------------------------------- #


@slot_init
@dataclass(frozen=True, slots=True)
class Batch(Message):
    """Envelope coalescing many messages between one (source, destination) pair.

    Produced by the batching layer of :mod:`repro.store`: all protocol messages
    a sharded process emits towards the same destination within one flush
    window travel as a single ``Batch`` — one delivery event on the simulator,
    one length-prefixed frame on the asyncio transports.  The envelope is flat
    (a batch never contains another batch) and purely syntactic: receivers
    unwrap it and process every inner message exactly as if it had arrived on
    its own, so protocol automata never see the envelope.
    """

    messages: Tuple[Message, ...] = ()

    def __len__(self) -> int:
        return len(self.messages)


def make_envelope(sender: str, messages: "Sequence[Message]") -> Message:
    """One wire message for *messages*: unwrapped if single, a batch otherwise."""
    if len(messages) == 1:
        return messages[0]
    return Batch(sender=sender, messages=tuple(messages))


def iter_unbatched(message: Message) -> Tuple[Message, ...]:
    """The protocol messages carried by *message* (itself, unless a batch)."""
    if isinstance(message, Batch):
        return message.messages
    return (message,)


# --------------------------------------------------------------------------- #
# Messages used by the baselines (ABD and the always-slow robust store)
# --------------------------------------------------------------------------- #


@slot_init
@dataclass(frozen=True, slots=True)
class BaselineQuery(Message):
    """Query phase of a baseline protocol (read the highest stored pair)."""

    op_id: int = 0


@slot_init
@dataclass(frozen=True, slots=True)
class BaselineQueryReply(Message):
    """Reply to a :class:`BaselineQuery` carrying the server's current pair."""

    op_id: int = 0
    pair: TimestampValue = TimestampValue(0)
    echo_pair: TimestampValue = TimestampValue(0)


@slot_init
@dataclass(frozen=True, slots=True)
class BaselineStore(Message):
    """Store phase of a baseline protocol (write-back / write a pair)."""

    op_id: int = 0
    pair: TimestampValue = TimestampValue(0)
    phase: int = 1


@slot_init
@dataclass(frozen=True, slots=True)
class BaselineStoreAck(Message):
    """Acknowledgement of a :class:`BaselineStore`."""

    op_id: int = 0
    phase: int = 1


ALL_MESSAGE_TYPES = (
    PreWrite,
    PreWriteAck,
    Write,
    WriteAck,
    TimestampQuery,
    TimestampQueryAck,
    Read,
    ReadAck,
    LeaseRenew,
    LeaseGrant,
    LeaseRevoke,
    LeaseRevokeAck,
    WriterLeaseRenew,
    WriterLeaseGrant,
    WriterLeaseRevoke,
    WriterLeaseRevokeAck,
    Batch,
    BaselineQuery,
    BaselineQueryReply,
    BaselineStore,
    BaselineStoreAck,
)

MESSAGE_TYPE_BY_NAME = {cls.__name__: cls for cls in ALL_MESSAGE_TYPES}

# Direction groups, usable in ``DISPATCH_IGNORES`` declarations: a
# server-side automaton never receives client-bound acks/grants, and vice
# versa.  ``tests/unit/test_dispatch.py`` feeds every message type to every
# declaring automaton and fails on a type it neither handles nor declares.
CLIENT_BOUND_MESSAGES = (
    PreWriteAck,
    WriteAck,
    TimestampQueryAck,
    ReadAck,
    LeaseGrant,
    LeaseRevoke,
    WriterLeaseGrant,
    WriterLeaseRevoke,
    BaselineQueryReply,
    BaselineStoreAck,
)

SERVER_BOUND_MESSAGES = (
    PreWrite,
    Write,
    Read,
    TimestampQuery,
    LeaseRenew,
    LeaseRevokeAck,
    WriterLeaseRenew,
    WriterLeaseRevokeAck,
    BaselineQuery,
    BaselineStore,
)
