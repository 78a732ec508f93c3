"""The protocol model the rules check against.

This module is the analyzer's copy of facts that live in the runtime tree
(:mod:`repro.core.messages`, :mod:`repro.wire.codec`).  It is duplicated *by
name only* — a unit test asserts the mirror matches the runtime tuples, so a
drift between the two fails the suite rather than silently weakening a rule.
Keeping the analyzer free of runtime imports means it can lint a tree that
does not import (including its own fixtures).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Every concrete wire message type, mirroring ``repro.core.messages.ALL_MESSAGE_TYPES``.
MESSAGE_TYPE_NAMES: Tuple[str, ...] = (
    "PreWrite",
    "PreWriteAck",
    "Write",
    "WriteAck",
    "TimestampQuery",
    "TimestampQueryAck",
    "Read",
    "ReadAck",
    "LeaseRenew",
    "LeaseGrant",
    "LeaseRevoke",
    "LeaseRevokeAck",
    "WriterLeaseRenew",
    "WriterLeaseGrant",
    "WriterLeaseRevoke",
    "WriterLeaseRevokeAck",
    "Batch",
    "BaselineQuery",
    "BaselineQueryReply",
    "BaselineStore",
    "BaselineStoreAck",
)

#: Transport envelopes are unpacked by the network layer before dispatch, so
#: automata carry no RP01 obligation for them.
ENVELOPE_TYPE_NAMES: FrozenSet[str] = frozenset({"Batch"})

#: Message types an automaton must account for (handle or declare ignored).
DISPATCH_OBLIGATION: FrozenSet[str] = (
    frozenset(MESSAGE_TYPE_NAMES) - ENVELOPE_TYPE_NAMES
)

#: Named groups usable inside ``DISPATCH_IGNORES`` declarations.  These mirror
#: the runtime tuples of the same names in ``repro.core.messages``.
MESSAGE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "CLIENT_BOUND_MESSAGES": (
        "PreWriteAck",
        "WriteAck",
        "TimestampQueryAck",
        "ReadAck",
        "LeaseGrant",
        "LeaseRevoke",
        "WriterLeaseGrant",
        "WriterLeaseRevoke",
        "BaselineQueryReply",
        "BaselineStoreAck",
    ),
    "SERVER_BOUND_MESSAGES": (
        "PreWrite",
        "Write",
        "Read",
        "TimestampQuery",
        "LeaseRenew",
        "LeaseRevokeAck",
        "WriterLeaseRenew",
        "WriterLeaseRevokeAck",
        "BaselineQuery",
        "BaselineStore",
    ),
}

#: Path segments whose subtrees must be deterministic (RP04): driven by the
#: discrete-event simulator, these layers may only see virtual time and
#: seeded randomness.
DETERMINISM_SCOPES: FrozenSet[str] = frozenset({"core", "sim", "store", "lease"})

#: Where the register automata build their messages (RP10): path segments,
#: plus the Byzantine strategies, which build replies on a server's behalf.
ADDRESSING_SCOPES: FrozenSet[str] = frozenset({"core", "lease", "variants", "baselines"})
ADDRESSING_FILE_SUFFIXES: Tuple[str, ...] = ("sim/byzantine.py",)

#: The message classes a ``LeaseRole`` binding holds (``repro.core.lease``):
#: ``self.role.grant(...)`` builds a message as surely as ``LeaseGrant(...)``.
ROLE_MESSAGE_FIELDS: FrozenSet[str] = frozenset({"renew", "grant", "revoke", "revoke_ack"})

#: The only files allowed to call ``DelayModel.sample`` directly (RP08): the
#: delay models themselves (composition/decoration) and the topology layer,
#: which consults the model only after deciding partitions, gray links and
#: zone placement.  Everywhere else must route delays through the topology.
DELAY_SAMPLE_ALLOWED_SUFFIXES: Tuple[str, ...] = (
    "sim/latency.py",
    "sim/topology.py",
)

#: Files whose dataclasses live on the simulator/runtime hot paths (RP07):
#: every message, value object and event allocated per protocol step must
#: declare ``slots=True`` — a per-instance ``__dict__`` costs allocation and
#: cache locality exactly where the profiler says the time goes.
SLOTS_REQUIRED_SUFFIXES: Tuple[str, ...] = (
    "core/messages.py",
    "core/types.py",
    "core/automaton.py",
    "sim/events.py",
)

#: Frame-level tags the message registry must not collide with
#: (``repro.wire.codec.TAG_VALUE`` / ``TAG_ENVELOPE``).
RESERVED_FRAME_TAGS: Dict[int, str] = {30: "TAG_VALUE", 31: "TAG_ENVELOPE"}

#: Valid tag range for ``register_struct``: value-plane tags live above the
#: frame/message planes and fit one byte.
STRUCT_TAG_RANGE: Tuple[int, int] = (0x10, 0xFF)
