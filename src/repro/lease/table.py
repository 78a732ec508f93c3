"""The lease mechanism, server side: one grant table, bound to a role by data.

:class:`LeaseTable` is everything a granting server does that does not depend
on *what* the lease protects: it records holders, grants within bounds,
expires grants by timer, revokes and waits for the holders' confirmations,
parks the sends a policy hands it and releases them when the last lease died,
and observes the post-recovery grace window.  The contract a grant
establishes is **withholding**: whatever the policy (:mod:`repro.lease.server`)
parks stays parked until each holder confirmed revocation or its lease
expired — never longer than one lease duration.  The client-side dual, with
the safety argument, is :mod:`repro.core.lease`.

Crash recovery (the incarnation fence, second half): the table is volatile,
so a crashed-and-recovered server has *forgotten* its promises.
:meth:`LeaseTable.notify_recovered` therefore opens a **grace period** — from
the first post-recovery input the server parks everything the policy would
park, and grants nothing, for one full lease duration, the longest any
forgotten pre-crash lease could still be relied on.  Holders additionally
fence the recovered server out by its bumped ``Message.epoch``, so the
pre-crash lease is rejected from both ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol, Tuple

from ..core.automaton import Effects, Send, timer_namespace
from ..core.lease import RENEWS, REVOKE_ACKS, LeaseRole, RenewMessage
from ..core.messages import Message
from ..core.types import FrozenEntry, TimestampValue, freshest


class LeasableServer(Protocol):
    """What a lease wrapper needs of the storage automaton it wraps."""

    process_id: str
    register_id: str

    @property
    def pw(self) -> TimestampValue: ...

    @property
    def w(self) -> TimestampValue: ...

    @property
    def vw(self) -> TimestampValue: ...

    @property
    def frozen(self) -> Dict[str, FrozenEntry]: ...

    @property
    def read_ts(self) -> Dict[str, int]: ...

    def handle_message(self, message: Message) -> Effects: ...

    def on_timer(self, timer_id: str) -> Effects: ...

    def describe(self) -> Dict[str, Any]: ...


@dataclass(slots=True, eq=False)  # one per server, register and role: no instance dict
class LeaseTable:
    """Holders, grants, expiry, revocation, grace and the parked sends."""

    role: LeaseRole
    server: LeasableServer
    #: Upper bound on any grant, hence on forgotten pre-crash leases: the
    #: grace window lasts exactly this long.  Holders of the same
    #: deployment request this duration, so the bound is tight.
    lease_duration: float
    #: Holder id -> the id of its current lease (one lease per holder).
    holders: Dict[str, int] = field(default_factory=dict, init=False)
    revoking: bool = field(default=False, init=False)
    in_grace: bool = field(default=False, init=False)
    #: Diagnostics: completed withhold-then-release cycles.
    revocations: int = field(default=0, init=False)
    #: Parked sends.  A tuple: empty (the usual state) it costs nothing, where
    #: a list per register, server and role is one more object for the GC.
    _withheld: Tuple[Send, ...] = field(default=(), init=False)
    _grace_timer_started: bool = field(default=False, init=False)
    #: ``<register>::<role prefix>/``: what every timer id of this table
    #: starts with (the server's register namespace, then the role).
    _timer_stem: str = field(default="", init=False)

    def __post_init__(self) -> None:
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        self._timer_stem = f"{timer_namespace(self.server.register_id)}{self.role.timer_prefix}/"

    # ---------------------------------------------------------------- recovery
    def notify_recovered(self) -> None:
        """Enter the post-recovery grace period (the table is gone)."""
        self.holders.clear()
        self.in_grace = True
        self._grace_timer_started = False

    def arm_grace_timer(self, effects: Effects) -> Effects:
        """Open the grace window on the first post-recovery input of any kind
        — a recovered server that only ever hears lease requests must still
        leave the grace period eventually."""
        if self.in_grace and not self._grace_timer_started:
            self._grace_timer_started = True
            effects.start_timer(f"{self._timer_stem}grace", self.lease_duration)
        return effects

    # ------------------------------------------------------------------ input
    def handle_message(self, message: Message) -> Optional[Effects]:
        """Consume *message* if it is this role's lease traffic, else ``None``."""
        if isinstance(message, RENEWS) and type(message) is self.role.renew:
            return self._on_renew(message)
        if isinstance(message, REVOKE_ACKS) and type(message) is self.role.revoke_ack:
            return self._end_lease(message.sender, message.lease_id)
        return None

    def _on_renew(self, message: RenewMessage) -> Effects:
        effects = Effects()
        if self.revoking or self.in_grace or not 0 < message.duration <= self.lease_duration:
            # No promises while a revocation round or the recovery grace is
            # pending: the requester simply never reaches its grant quorum and
            # keeps running the full protocol.  Out-of-bounds windows are
            # refused, not clamped: a clamped grant would expire server-side
            # before the holder's own timer, and a longer-than-configured one
            # would outlive both the recovery grace window and the documented
            # bound on how long a silent holder can stall the parked sends.
            return effects
        self.holders[message.sender] = message.lease_id
        effects.send(
            message.sender,
            self.role.grant(
                sender=self.server.process_id,
                register_id=self.server.register_id,
                lease_id=message.lease_id,
                duration=message.duration,
                # The freshest pair stored here: the holder counts the grant
                # only if this does not exceed what it cached.
                observed=freshest(self.server.pw, self.server.w, self.server.vw),
            ),
        )
        effects.start_timer(
            f"{self._timer_stem}expire/{message.sender}/{message.lease_id}",
            message.duration,
        )
        return effects

    def _end_lease(self, holder_id: str, lease_id: int) -> Effects:
        if self.holders.get(holder_id) != lease_id:
            return Effects()  # stale: the lease was renewed or already ended
        del self.holders[holder_id]
        return self._maybe_release()

    # ------------------------------------------------------------- revocation
    def start_revocation(self) -> Effects:
        """Tell every holder to give its lease up (no-op while already
        revoking); the round ends when the table is empty — nothing is granted
        meanwhile.  During the recovery grace it is empty from the start: the
        window itself stands in for the forgotten pre-crash holders."""
        effects = Effects()
        if self.revoking:
            return effects
        self.revoking = True
        for holder_id in sorted(self.holders):
            effects.send(
                holder_id,
                self.role.revoke(
                    sender=self.server.process_id,
                    register_id=self.server.register_id,
                    lease_id=self.holders[holder_id],
                ),
            )
        return effects

    def withhold(self, effects: Effects) -> Effects:
        """Park *effects*' sends until release; everything else passes."""
        self._withheld += tuple(effects.sends)
        effects.sends = []
        return effects

    def _maybe_release(self) -> Effects:
        effects = Effects()
        if self.revoking and not self.holders and not self.in_grace:
            self.revoking = False
            self.revocations += 1
            effects.sends = list(self._withheld)
            self._withheld = ()
        return effects

    # ----------------------------------------------------------------- timers
    def on_timer(self, timer_id: str) -> Optional[Effects]:
        """Consume *timer_id* if it is one of this table's, else ``None``."""
        stem = self._timer_stem
        if timer_id == f"{stem}grace":
            self.in_grace = False
            return self._maybe_release()
        expire = f"{stem}expire/"
        if not timer_id.startswith(expire):
            return None
        holder_id, _, id_text = timer_id[len(expire) :].rpartition("/")
        try:
            lease_id = int(id_text)
        except ValueError:
            return Effects()
        return self._end_lease(holder_id, lease_id)

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        return {
            "holders": sorted(self.holders),
            "revoking": self.revoking,
            "withheld": len(self._withheld),
            "grace": self.in_grace,
            "revocations": self.revocations,
        }
