"""The two withhold policies of a granting server: read role, writer role.

Both wrappers own one :class:`~repro.lease.table.LeaseTable` — the grants,
expiry timers, revocation round, grace window and parked sends live there,
once — and decide only *what triggers revocation* and *what is withheld*.

Wrap order is ``StorageServer → WriterLeaseServer → LeaseServer``: the writer
lease holder's 1-round PW passes through the inner wrapper into the read-lease
layer, which still withholds its acknowledgement until conflicting read leases
are revoked — writer leases never bypass the read-side discipline.  Timers
route by prefix (``wlease/…`` inner, ``lease/…`` outer).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..core.automaton import Automaton, Effects
from ..core.lease import READ_LEASE, WRITER_LEASE, LeaseRole
from ..core.messages import Message, PreWrite, TimestampQuery, Write, WriterLeaseRenew
from ..core.types import FrozenEntry, TimestampValue
from .table import LeasableServer, LeaseTable


class _LeaseWrapper(Automaton):
    """What both policies share: the wrapped server, the table, the proxies."""

    def __init__(self, role: LeaseRole, inner: LeasableServer, lease_duration: float) -> None:
        super().__init__(inner.process_id, inner.register_id)
        self.inner = inner
        self.table = LeaseTable(role, inner, lease_duration)

    # Byzantine strategies (and debugging code) read the storage fields off
    # whatever automaton the malicious wrapper holds; proxy them through.
    @property
    def pw(self) -> TimestampValue:
        return self.inner.pw

    @property
    def w(self) -> TimestampValue:
        return self.inner.w

    @property
    def vw(self) -> TimestampValue:
        return self.inner.vw

    @property
    def frozen(self) -> Dict[str, FrozenEntry]:
        return self.inner.frozen

    @property
    def read_ts(self) -> Dict[str, int]:
        return self.inner.read_ts

    def notify_recovered(self) -> None:
        """Enter the post-recovery grace period (the lease table is gone)."""
        self.table.notify_recovered()

    @property
    def in_grace(self) -> bool:
        """Whether the post-recovery grace period is still pending or active."""
        return self.table.in_grace

    def describe(self) -> Dict[str, Any]:
        info = self.inner.describe()
        info[self.table.role.describe_key] = self.table.describe()
        return info


class LeaseServer(_LeaseWrapper):
    """A storage automaton wrapper granting and enforcing **read** leases.

    Once a step of the wrapped server reports an advanced pair
    (``Effects.advanced``: its ``pw``/``w``/``vw`` moved) while leases are
    outstanding, every acknowledgement the server would send — the
    write's own ack, but also READ_ACKs that would expose the advanced state
    to other readers' fast paths — is parked until each holder confirmed
    revocation or its lease expired.  Combined with the holders' clean-grant
    rule this closes the intersection argument: any quorum that completes a
    newer operation contains an honest granter whose acknowledgement waited
    for the lease to die first.  During the recovery grace the same silence
    covers the forgotten pre-crash holders.

    The one exception is the writer lease's rule (its holder never waits for
    itself): an advance made by a message from the table's *only* holder
    revokes nothing, because that holder raises its own cache to what its
    operation wrote once the operation completes
    (:meth:`~repro.core.lease.LeaseHolder.seed`) and serves no lease read
    before.  Any other holder present still gets the revoke-all.
    """

    def __init__(self, inner: LeasableServer, lease_duration: float = 60.0) -> None:
        super().__init__(READ_LEASE, inner, lease_duration)

    def handle_message(self, message: Message) -> Effects:
        effects = self.table.handle_message(message)
        if effects is None:
            effects = self.inner.handle_message(message)
            changed = bool(effects.advanced)
            holders = self.table.holders
            if changed and len(holders) == 1 and message.sender in holders:
                changed = False  # the sole holder's own advance
            effects = self._guard(effects, changed)
        return self.table.arm_grace_timer(effects)

    def on_timer(self, timer_id: str) -> Effects:
        effects = self.table.on_timer(timer_id)
        if effects is None:
            effects = self._guard(self.inner.on_timer(timer_id), changed=False)
        return effects

    def _guard(self, inner_effects: Effects, changed: bool) -> Effects:
        """Withhold *inner_effects*' sends while leases demand silence."""
        table = self.table
        if table.revoking or table.in_grace or (changed and table.holders):
            return table.start_revocation().merge(table.withhold(inner_effects))
        return inner_effects


class WriterLeaseServer(_LeaseWrapper):
    """A storage automaton wrapper granting and enforcing **writer** leases.

    While one writer holds the lease on a register, the server parks
    competing writers' traffic:

    * a :class:`~repro.core.messages.TimestampQuery` from another writer is
      parked *as a message* — replying now would hand out a ``max_ts`` the
      holder is still advancing past, so the query is re-handled (and a fresh
      reply produced) only once the lease died;
    * a competing :class:`~repro.core.messages.PreWrite` or writer-round
      :class:`~repro.core.messages.Write` is processed (pair adoption is
      monotone and mandatory) but its acknowledgement is withheld — the
      competing WRITE cannot complete while the holder relies on its cache.

    Either event, or a competing lease request (the table keeps a single
    holder; the competitor's lazy retry finds it free), also revokes the
    holder, so competing writers are delayed by at most one revocation
    round-trip, not a full lease term.  Reader traffic (READ rounds, read
    write-backs, read leases) passes through untouched: by the clean-grant
    rule a write-back can only carry a pair the holder's cache already
    dominates.  During the recovery grace *all* writer traffic is parked.

    Quorum argument: a held lease means ``S - t`` servers park competing
    traffic, so a competing writer reaches at most ``t < S - t``
    acknowledgements — no competing WRITE completes and the holder's cached
    pair stays the register's freshest, which is exactly what makes the
    holder's 1-round writes (and locally-decided CAS) safe.
    """

    def __init__(self, inner: LeasableServer, lease_duration: float = 60.0) -> None:
        super().__init__(WRITER_LEASE, inner, lease_duration)
        #: Competing TimestampQuery messages, re-handled at release time (a
        #: tuple for the same reason as the table's parked sends).
        self._parked: Tuple[Message, ...] = ()

    def handle_message(self, message: Message) -> Effects:
        return self.table.arm_grace_timer(self._dispatch(message))

    def _dispatch(self, message: Message) -> Effects:
        table = self.table
        if (
            isinstance(message, WriterLeaseRenew)
            and table.holders
            and message.sender not in table.holders
        ):
            return table.start_revocation()
        effects = table.handle_message(message)
        if effects is not None:
            return self._reopen(effects)
        if not self._blocks(message):
            return self.inner.handle_message(message)
        effects = table.start_revocation()
        if isinstance(message, TimestampQuery):
            self._parked += (message,)
            return effects
        return effects.merge(table.withhold(self.inner.handle_message(message)))

    def on_timer(self, timer_id: str) -> Effects:
        effects = self.table.on_timer(timer_id)
        if effects is None:
            return self.inner.on_timer(timer_id)
        return self._reopen(effects)

    def _blocks(self, message: Message) -> bool:
        """Whether *message* is competing-writer traffic that must wait."""
        competing = isinstance(message, (TimestampQuery, PreWrite)) or (
            isinstance(message, Write) and message.from_writer
        )
        if not competing:
            return False
        table = self.table
        if table.in_grace:
            return True
        return message.sender not in table.holders and (bool(table.holders) or table.revoking)

    def _reopen(self, effects: Effects) -> Effects:
        """After a release, re-handle the parked queries: the replies now
        reflect every write the departed holder completed under the lease."""
        if self._parked and not self.table.revoking:
            parked, self._parked = self._parked, ()
            for query in parked:
                effects.merge(self.inner.handle_message(query))
        return effects

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info[self.table.role.describe_key]["parked"] = len(self._parked)
        return info
