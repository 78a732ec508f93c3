"""The lease mechanism, client side: one holder, bound to a role by data.

A lease is one connector with two role bindings.  What differs between them
is what the lease lets its holder skip (:class:`~repro.core.reader.LeasedReader`
serves ``READ()`` locally; :class:`~repro.core.writer.LeasedWriter` skips the
timestamp query and decides CAS locally) and what the granting server
withholds (the two policies in :mod:`repro.lease.server`).  Everything else is
:class:`LeaseHolder` here and :class:`repro.lease.table.LeaseTable` on the
server; neither branches on the role it serves.

Why a held lease is safe to rely on (the invariants, stated once):

* **Clean grants.**  A grant counts towards the lease quorum only if the
  ``observed`` pair it carries does not exceed the cached pair: a server that
  processed a newer write before granting can never vouch for the cache.
* **Quorum intersection.**  The lease holds once ``S - t`` servers granted it
  cleanly.  Any quorum that completes a newer operation (a write, a
  write-back, a competing writer's query) intersects the clean granters in at
  least ``b + 1`` servers, one of them honest, and that one *withholds* its
  acknowledgement until this holder confirmed revocation or the lease expired
  — so nothing newer completes while the cache is relied on.
* **The holder's window is the shorter one.**  Expiry is a timer armed when
  the request is *sent*, a strict lower bound on every server's grant time,
  so under both runtimes (virtual time in the simulator, scaled wall-clock in
  asyncio) the holder stops relying on the lease before any granter releases
  a withheld acknowledgement.
* **Epoch fence.**  Grants record the granting server's ``Message.epoch``.  A
  message from a higher epoch reveals the server crashed and recovered — its
  volatile lease table, and with it the withholding promise, is gone — so
  that grant is discarded and the lease dropped once the clean quorum is
  broken.  (The recovered server independently stays silent for a full
  lease-duration grace period, so even an unfenced holder cannot be bypassed.)
* **Revoke drops both instances.**  Servers keep one lease per holder, so a
  renewal in flight supersedes the held lease in their tables.  A revoke that
  names either instance therefore ends both, *before* the acknowledgement
  leaves: acking a revoke of the renewal while still relying on the
  superseded lease would let the withheld acknowledgements go free.
* **The sole holder does not revoke itself.**  A granter whose only holder
  is the sender of an advancing message (the holder's own write, CAS, RMW or
  read write-back) starts no revocation.  That is safe because every pair
  the holder's messages carry is at most what its cache holds once the
  operation that sent it completes (:meth:`LeaseHolder.seed` raises both
  instances to the operation's outcome); the holder serves no lease read
  while that operation is open (one operation per register); and any other
  holder present still gets the revoke-all.  A sole holder's own write-back
  is covered by ``seed()`` at the read's completion, its own write by the
  same call in :class:`~repro.core.mwmr.MultiWriterClient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Type, Union

from .automaton import Effects, timer_namespace
from .config import SystemConfig
from .messages import (
    LeaseGrant,
    LeaseRenew,
    LeaseRevoke,
    LeaseRevokeAck,
    Message,
    WriterLeaseGrant,
    WriterLeaseRenew,
    WriterLeaseRevoke,
    WriterLeaseRevokeAck,
)
from .types import TimestampValue

#: Share of the lease window after which the holder asks for the next one.
RENEW_FRACTION = 0.5

RenewMessage = Union[LeaseRenew, WriterLeaseRenew]
GrantMessage = Union[LeaseGrant, WriterLeaseGrant]
RevokeMessage = Union[LeaseRevoke, WriterLeaseRevoke]
RevokeAckMessage = Union[LeaseRevokeAck, WriterLeaseRevokeAck]
# ``isinstance`` against these narrows a Message to the unions above for the
# type checker; whose role it is takes one identity test against the binding.
RENEWS = (LeaseRenew, WriterLeaseRenew)
GRANTS = (LeaseGrant, WriterLeaseGrant)
REVOKES = (LeaseRevoke, WriterLeaseRevoke)
REVOKE_ACKS = (LeaseRevokeAck, WriterLeaseRevokeAck)


@dataclass(frozen=True)
class LeaseRole:
    """A role binding of the lease connector — data, never a branch.

    The timer prefix keeps the roles apart where they share a process: a
    :class:`~repro.core.mwmr.MultiWriterClient` hosts a holder of each role
    under one process id (``<pid>/lease<n>/…`` vs ``<pid>/wlease<n>/…``), and
    the ``StorageServer → writer-lease → read-lease`` stack routes timers by
    prefix (``lease/…`` vs ``wlease/…``).
    """

    renew: Type[RenewMessage]
    grant: Type[GrantMessage]
    revoke: Type[RevokeMessage]
    revoke_ack: Type[RevokeAckMessage]
    timer_prefix: str
    describe_key: str


READ_LEASE = LeaseRole(LeaseRenew, LeaseGrant, LeaseRevoke, LeaseRevokeAck, "lease", "leases")
WRITER_LEASE = LeaseRole(
    WriterLeaseRenew,
    WriterLeaseGrant,
    WriterLeaseRevoke,
    WriterLeaseRevokeAck,
    "wlease",
    "writer_leases",
)


@dataclass(slots=True)
class Lease:
    """One lease instance: an acquisition in flight, or the held lease.
    ``cached`` is the pair it vouches for (the outcome of the operation the
    request rode on, or the held lease's pair for a renewal); ``grants`` maps
    each granting server to the ``(observed, epoch)`` of its grant."""

    lease_id: int
    cached: Optional[TimestampValue] = None
    grants: Dict[str, Tuple[TimestampValue, int]] = field(default_factory=dict)


@dataclass(slots=True, eq=False)  # one per client, register and role: no instance dict
class LeaseHolder:
    """The client half of a lease: acquire, hold, fence, give up.

    ``held`` is the active lease (``None`` when the owner must run the full
    protocol) and ``acquiring`` the request in flight, if any.  Acquisition
    rides on an ordinary operation of the owner — :meth:`acquire` adds the
    request broadcast to that operation's first round, one batch frame per
    server under the batching layer — and the operation's outcome seeds the
    cache (:meth:`seed`).  Renewal is lazy: the renew timer only marks the
    lease due, and the next lease-served operation carries the request
    (:meth:`renew_if_due`), so an idle holder lets the lease lapse instead of
    keeping a timer chain alive (the simulator would never reach quiescence).
    """

    role: LeaseRole
    process_id: str
    config: SystemConfig
    lease_duration: float
    #: The owner's register: stamped on the requests and revoke acks, and
    #: the namespace of the timers.
    register_id: str = ""
    held: Optional[Lease] = field(default=None, init=False)
    acquiring: Optional[Lease] = field(default=None, init=False)
    _counter: int = field(default=0, init=False)
    _renew_due: bool = field(default=False, init=False)
    _server_epochs: Dict[str, int] = field(default_factory=dict, init=False)
    _timer_stem: str = field(default="", init=False)

    def __post_init__(self) -> None:
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        self._timer_stem = (
            f"{timer_namespace(self.register_id)}{self.process_id}/{self.role.timer_prefix}"
        )

    # ----------------------------------------------------------- acquisition
    def acquire(self, effects: Effects, cached: Optional[TimestampValue] = None) -> None:
        """Add a lease request to *effects* — unless one is still in flight.

        A fallback operation that returns before its grants are handled must
        not discard them when the caller re-invokes at once; the pending
        request stays safe to finish, because clean grants are judged against
        its ``cached`` pair, which later operations can only raise.
        """
        if self.acquiring is not None:
            return
        self._counter += 1
        lease = Lease(self._counter, cached)
        self.acquiring = lease
        duration = self.lease_duration
        effects.broadcast(
            self.config.server_ids(),
            self.role.renew(
                sender=self.process_id,
                register_id=self.register_id,
                lease_id=lease.lease_id,
                duration=duration,
            ),
        )
        # Both timers run from *now*, the send (see the module docstring).
        effects.start_timer(self._timer_id(lease.lease_id, "expire"), duration)
        effects.start_timer(self._timer_id(lease.lease_id, "renew"), duration * RENEW_FRACTION)

    def renew_if_due(self, effects: Effects) -> None:
        """Let a lease-served operation carry the renewal, once it is due."""
        if self._renew_due and self.acquiring is None and self.held is not None:
            self._renew_due = False
            self.acquire(effects, cached=self.held.cached)

    def seed(self, pair: TimestampValue, effects: Effects) -> None:
        """Raise the cache of the held lease and of the request in flight to
        a quorum-proven *pair*; creates no lease.

        Called with the outcome of one of the owner's operations: the
        fallback operation a request rode on, a later one while it is still
        pending, or the owner's own write.  Grants that observed up to *pair*
        are clean with respect to it, because it dominates everything
        completed before that operation returned.  The held lease is raised
        too: the owner's own write-back or write advanced the granters
        without revoking it (the sole-holder exemption of
        :class:`~repro.lease.server.LeaseServer`).
        """
        held = self.held
        if held is not None and (held.cached is None or pair.order_key > held.cached.order_key):
            held.cached = pair
        acquiring = self.acquiring
        if acquiring is None:
            return
        if acquiring.cached is None or pair.order_key > acquiring.cached.order_key:
            acquiring.cached = pair
        self._maybe_activate(acquiring, effects)

    def _clean_grant_count(self, lease: Lease) -> int:
        if lease.cached is None:
            return 0  # activation waits for the riding operation's outcome
        cached_key = lease.cached.order_key
        return sum(
            1 for observed, _ in lease.grants.values() if observed.order_key <= cached_key
        )

    def _maybe_activate(self, lease: Lease, effects: Effects) -> None:
        if lease is not self.acquiring or self._clean_grant_count(lease) < self.config.round_quorum:
            return
        if self.held is not None:
            # The renewal supersedes the held lease: its timers are dead.
            self._cancel_timers(self.held, effects)
        self.held = lease
        self.acquiring = None
        self._renew_due = False

    # ----------------------------------------------------------------- input
    def handle_message(self, message: Message) -> Optional[Effects]:
        """Fence *message*'s epoch, then consume it if it is lease traffic.

        Returns ``None`` for everything that is not a grant or revoke of this
        holder's role: the owner's own dispatch takes it from there.
        """
        if message.epoch > self._server_epochs.get(message.sender, 0):
            self._fence(message.sender, message.epoch)
        if isinstance(message, GRANTS) and type(message) is self.role.grant:
            return self._on_grant(message)
        if isinstance(message, REVOKES) and type(message) is self.role.revoke:
            return self._on_revoke(message)
        return None

    def _fence(self, server_id: str, epoch: int) -> None:
        """Incarnation fencing: *server_id* recovered and forgot its grants."""
        self._server_epochs[server_id] = epoch
        for lease in (self.held, self.acquiring):
            if lease is not None:
                lease.grants.pop(server_id, None)
        held = self.held
        if held is not None and self._clean_grant_count(held) < self.config.round_quorum:
            # The lease quorum no longer intersects every competing quorum in
            # an honest withholding server: stop relying on it.  A request in
            # flight merely lost one grant and may still reach its quorum.
            self.held = None

    def _on_grant(self, grant: GrantMessage) -> Effects:
        effects = Effects()
        if grant.epoch < self._server_epochs.get(grant.sender, 0):
            return effects  # granted by an incarnation whose table is gone
        for lease in (self.acquiring, self.held):
            if lease is not None and lease.lease_id == grant.lease_id:
                # Grants keep landing after the operation they rode on returned
                # and after the S - t-th one activated the lease; each is one
                # more withholding granter the lease can afford to lose.
                lease.grants[grant.sender] = (grant.observed, grant.epoch)
                self._maybe_activate(lease, effects)
                break
        return effects

    def _on_revoke(self, revoke: RevokeMessage) -> Effects:
        # The state changes here and the acknowledgement below reaches the
        # transport only after this handler returns, so a revoking server
        # never sees the ack while the owner could still rely on the lease.
        effects = Effects()
        instances = [lease for lease in (self.held, self.acquiring) if lease is not None]
        if any(lease.lease_id == revoke.lease_id for lease in instances):
            for lease in instances:
                self._cancel_timers(lease, effects)
            self.held = None
            self.acquiring = None
        # A stale revoke is acknowledged too (harmlessly): the server ignores
        # acks that do not match its table.
        effects.send(
            revoke.sender,
            self.role.revoke_ack(
                sender=self.process_id, register_id=self.register_id, lease_id=revoke.lease_id
            ),
        )
        return effects

    # ---------------------------------------------------------------- timers
    def _timer_id(self, lease_id: int, label: str) -> str:
        return f"{self._timer_stem}{lease_id}/{label}"

    def _cancel_timers(self, lease: Lease, effects: Effects) -> None:
        """Disarm both timers of a dead instance, which would otherwise stay
        pending for the full lease duration.  Cancelling a timer that already
        fired is a no-op, so this is safe whichever of the two already ran."""
        effects.cancel_timer(self._timer_id(lease.lease_id, "expire"))
        effects.cancel_timer(self._timer_id(lease.lease_id, "renew"))

    def on_timer(self, timer_id: str) -> bool:
        """Consume *timer_id* if it is one of this holder's; says whether."""
        stem = self._timer_stem
        if not timer_id.startswith(stem):
            return False
        id_text, _, label = timer_id[len(stem) :].partition("/")
        try:
            lease_id = int(id_text)
        except ValueError:
            return True
        held = self.held
        if label == "expire":
            if held is not None and held.lease_id == lease_id:
                self.held = None
            if self.acquiring is not None and self.acquiring.lease_id == lease_id:
                self.acquiring = None
        elif label == "renew" and held is not None and held.lease_id == lease_id:
            self._renew_due = True
        return True

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        held = self.held
        return {
            "held": held is not None,
            "lease_id": held.lease_id if held is not None else None,
            "duration": self.lease_duration,
            "cached": held.cached if held is not None else None,
        }
