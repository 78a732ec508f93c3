"""The protocol model the rules check against.

The message grammar — every wire message type, the envelope, the two
direction groups — is read from :mod:`repro.core.messages`, so a message type
added there becomes an RP01 and RP10 obligation with no edit here.  That
module is the only runtime code the analyzer imports: the tree it lints is
read as source, never imported, so it can lint a tree that does not import
(including its own fixtures).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..core import messages

#: Every concrete wire message type (``repro.core.messages.ALL_MESSAGE_TYPES``).
MESSAGE_TYPE_NAMES: Tuple[str, ...] = tuple(cls.__name__ for cls in messages.ALL_MESSAGE_TYPES)

#: Transport envelopes are unpacked by the network layer before dispatch, so
#: automata carry no RP01 obligation for them.
ENVELOPE_TYPE_NAMES: FrozenSet[str] = frozenset({messages.Batch.__name__})

#: Message types an automaton must account for (handle or declare ignored).
DISPATCH_OBLIGATION: FrozenSet[str] = frozenset(MESSAGE_TYPE_NAMES) - ENVELOPE_TYPE_NAMES

#: Named groups usable inside ``DISPATCH_IGNORES`` declarations: the runtime
#: tuples of the same names in ``repro.core.messages``.
MESSAGE_GROUPS: Dict[str, Tuple[str, ...]] = {
    name: tuple(cls.__name__ for cls in getattr(messages, name))
    for name in ("CLIENT_BOUND_MESSAGES", "SERVER_BOUND_MESSAGES")
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
