"""Reader automaton of the core algorithm (Figure 2).

A READ proceeds in rounds.  In every round the reader sends ``READ<tsr, rnd>``
to all servers and waits for ``S - t`` valid acknowledgements; in the first
round it additionally arms a timer set to the synchronous round-trip bound, so
that in a synchronous execution it hears from *every* correct server before it
gives up on the fast path (the timer is a deadline, not a wait: see
:class:`~repro.core.automaton.TimerPolicy`).
At the end of a round the reader computes the candidate set

``C = { c : (safe(c) and highCand(c)) or safeFrozen(c) }``

and, once ``C`` is non-empty, selects the highest-timestamp candidate.  If that
happened at the end of round 1 and the ``fast`` predicate holds, the READ
returns immediately (it was *fast*); otherwise the reader writes the selected
pair back using the three-round W pattern before returning.

Rounds after the first announce the reader's fresh read timestamp to the
servers (Fig. 3, line 10) which, via the ``newread`` piggyback, lets the writer
freeze a value for this READ and thereby guarantees termination even under an
unbounded number of concurrent WRITEs (Theorem 2, case b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from .automaton import ClientAutomaton, Effects, OperationComplete, TimerPolicy
from .config import SystemConfig
from .messages import (
    SERVER_BOUND_MESSAGES,
    BaselineQueryReply,
    BaselineStoreAck,
    LeaseGrant,
    LeaseRenew,
    LeaseRevoke,
    LeaseRevokeAck,
    Message,
    PreWriteAck,
    Read,
    ReadAck,
    TimestampQueryAck,
    Write,
    WriteAck,
    WriterLeaseGrant,
    WriterLeaseRevoke,
)
from .predicates import ViewTable
from .types import INITIAL_READ_TIMESTAMP, TimestampValue, is_bottom


@dataclass
class _ReadAttempt:
    """Bookkeeping for the currently outstanding READ operation."""

    op_id: int
    read_ts: int
    round: int = 0
    phase: str = "read"  # "read", "writeback", "done"
    round_responders: Set[str] = field(default_factory=set)
    timer_expired: bool = False
    selected: Optional[TimestampValue] = None
    writeback_round: int = 0
    writeback_acks: Set[str] = field(default_factory=set)
    read_rounds_used: int = 0
    writeback_rounds_used: int = 0
    did_writeback: bool = False


class AtomicReader(ClientAutomaton):
    """A reader ``r_j`` of the SWMR atomic storage (Fig. 2)."""

    #: Number of write-back rounds (the core algorithm mirrors the 3-round
    #: WRITE pattern; the Appendix C variant overrides this with 2).
    WRITEBACK_ROUNDS = 3

    # A reader only consumes ReadAck/WriteAck; writer-phase acks, lease
    # traffic (handled by the LeasedReader subclass) and baseline replies
    # never address it.
    DISPATCH_IGNORES = SERVER_BOUND_MESSAGES + (
        PreWriteAck,
        TimestampQueryAck,
        LeaseGrant,
        LeaseRevoke,
        WriterLeaseGrant,
        WriterLeaseRevoke,
        BaselineQueryReply,
        BaselineStoreAck,
    )

    #: Whether slow READs write the selected value back before returning.  The
    #: Appendix D regular variant sets this to ``False`` — dropping write-backs
    #: is exactly what trades atomicity for regularity and what makes malicious
    #: readers harmless.
    DO_WRITEBACK = True

    def __init__(
        self,
        reader_id: str,
        config: SystemConfig,
        timer_delay: float = 10.0,
        count_unresponsive: bool = False,
        enable_fast_path: bool = True,
        timer_policy: TimerPolicy = TimerPolicy.DEADLINE,
    ) -> None:
        """Create the reader.

        ``enable_fast_path=False`` makes every READ write back before returning
        (the conservative, "plan for the worst only" behaviour used by the
        always-slow baseline).  ``timer_policy`` says what the round-1 timer
        of Fig. 2 l.17 means (see :class:`~repro.core.automaton.TimerPolicy`):
        a wait (paper-faithful), a deadline (the default — the READ returns on
        the reply that makes it fast) or no timer, so the reader acts as soon
        as ``S - t`` replies arrive.
        """
        super().__init__(reader_id, timer_delay=timer_delay)
        self.config = config
        self.enable_fast_path = enable_fast_path
        self.timer_policy = timer_policy
        self.read_ts: int = INITIAL_READ_TIMESTAMP
        self.views = ViewTable(config, count_unresponsive=count_unresponsive)
        self._attempt: Optional[_ReadAttempt] = None

    # ------------------------------------------------------------ invocation
    def read(self) -> Effects:
        """Invoke ``READ()``; returns the effects of its first round."""
        self._operation_started()
        op_id = self._next_op_id()
        self.read_ts += 1
        self.views.reset()
        self._attempt = _ReadAttempt(op_id=op_id, read_ts=self.read_ts)
        return self._start_read_round()

    # ----------------------------------------------------------------- input
    def handle_message(self, message: Message) -> Effects:
        if isinstance(message, ReadAck):
            return self._on_read_ack(message)
        if isinstance(message, WriteAck):
            return self._on_writeback_ack(message)
        return Effects()

    def on_timer(self, timer_id: str) -> Effects:
        attempt = self._attempt
        if attempt is None or attempt.phase != "read":
            return Effects()
        # Timer identifiers are scoped per (operation, round): a stale timer
        # from an earlier round — or any round-1 timer when the reader never
        # arms one (``TimerPolicy.NONE``) — must not flip the current
        # round's ``timer_expired`` flag or re-evaluate the round early.
        if self.timer_policy is TimerPolicy.NONE:
            return Effects()
        if timer_id != self._round_timer_id(attempt):
            return Effects()
        attempt.timer_expired = True
        return self._maybe_finish_round()

    def _round_timer_id(self, attempt: _ReadAttempt) -> str:
        return self._timer_id(attempt.op_id, f"read-round-{attempt.round}")

    # ------------------------------------------------------------ read rounds
    def _start_read_round(self) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        attempt.round += 1
        attempt.read_rounds_used += 1
        attempt.round_responders = set()
        effects = Effects()
        if attempt.round == 1:
            if self.timer_policy is TimerPolicy.NONE:
                attempt.timer_expired = True
            else:
                effects.start_timer(self._round_timer_id(attempt), self.timer_delay)
        message = Read(
            sender=self.process_id, read_ts=attempt.read_ts, round=attempt.round
        )
        effects.broadcast(self.config.server_ids(), message)
        return effects

    def _on_read_ack(self, ack: ReadAck) -> Effects:
        attempt = self._attempt
        if attempt is None or attempt.phase != "read":
            return Effects()
        if ack.read_ts != attempt.read_ts:
            return Effects()  # stale or forged acknowledgement
        # Any acknowledgement of the current READ refreshes the view table
        # (Fig. 2, lines 23-25 replace the view when the round number grows).
        new_view = self.views.record_ack(ack)
        if ack.round == attempt.round:
            attempt.round_responders.add(ack.sender)
        if attempt.timer_expired or attempt.round > 1:
            return self._maybe_finish_round()
        if new_view and self.timer_policy is TimerPolicy.DEADLINE:
            return self._maybe_return_before_deadline(attempt, ack)
        return Effects()

    def _maybe_return_before_deadline(self, attempt: _ReadAttempt, ack: ReadAck) -> Effects:
        """Return on the reply that makes the READ fast (round 1, timer pending).

        Once ``S - t`` servers answered, ``C != ∅`` and ``fast(csel)`` hold,
        the timer could only confirm the decision: fed the same replies and
        then its expiry, Fig. 2 l.17-21 returns exactly this value.  In every
        other case nothing happens here and the timer ends the round as before.

        Runs once per server per READ (*ack* is that server's first reply).
        ``select()`` is the expensive part, so a reply earns it only when the
        pair it reports as ``pw`` — the freshest an honest server holds — is
        itself fast, and enough servers answered to invalidate whatever
        fresher pairs (forged, or pre-written by a WRITE still in flight)
        others report.  When it is not, the server lags and a later reply
        passes, or the READ is contended: the deadline decides those.
        """
        if not self.enable_fast_path:
            return Effects()
        responders = len(attempt.round_responders)
        if responders < self.config.round_quorum:
            return Effects()
        candidate = ack.pw
        if not self._fast_predicate(candidate):
            return Effects()
        if responders - self.views.count_fresher_only(candidate) < self.config.round_quorum:
            return Effects()
        selected = self.views.select(attempt.read_ts)
        if selected is None:
            return Effects()
        if selected != candidate and not self._fast_predicate(selected):
            return Effects()
        attempt.selected = selected
        return self._complete()

    def _round_wait_satisfied(self, attempt: _ReadAttempt) -> bool:
        """Fig. 2, line 17: ``S - t`` replies and (timer expired or rnd > 1)."""
        if len(attempt.round_responders) < self.config.round_quorum:
            return False
        if attempt.round == 1 and not attempt.timer_expired:
            return False
        return True

    def _maybe_finish_round(self) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        if not self._round_wait_satisfied(attempt):
            return Effects()

        selected = self.views.select(attempt.read_ts)
        if selected is None:
            # C is empty: run another round (Fig. 2, line 19 "until C != ∅").
            return self._start_read_round()

        attempt.selected = selected
        is_fast = (
            self.enable_fast_path
            and attempt.round == 1
            and self._fast_predicate(selected)
        )
        if is_fast or not self.DO_WRITEBACK:
            return self._complete()
        attempt.did_writeback = True
        attempt.phase = "writeback"
        return self._start_writeback_round(1)

    def _fast_predicate(self, selected: TimestampValue) -> bool:
        """The ``fast(c)`` predicate deciding whether the write-back is skipped.

        The core algorithm uses ``fastpw or fastvw`` (Fig. 2, line 7); the
        Appendix C variant overrides this with its own quorum.
        """
        return self.views.fast(selected)

    # -------------------------------------------------------------- writeback
    def _start_writeback_round(self, round_number: int) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        attempt.writeback_round = round_number
        attempt.writeback_acks = set()
        attempt.writeback_rounds_used += 1
        effects = Effects()
        message = Write(
            sender=self.process_id,
            round=round_number,
            ts=attempt.read_ts,
            pair=attempt.selected,
            from_writer=False,
        )
        effects.broadcast(self.config.server_ids(), message)
        return effects

    def _on_writeback_ack(self, ack: WriteAck) -> Effects:
        attempt = self._attempt
        if attempt is None or attempt.phase != "writeback":
            return Effects()
        if ack.round != attempt.writeback_round or ack.ts != attempt.read_ts:
            return Effects()
        attempt.writeback_acks.add(ack.sender)
        if len(attempt.writeback_acks) < self.config.round_quorum:
            return Effects()
        if attempt.writeback_round < self.WRITEBACK_ROUNDS:
            return self._start_writeback_round(attempt.writeback_round + 1)
        return self._complete()

    # ------------------------------------------------------------ completion
    def _complete(self) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        attempt.phase = "done"
        self._attempt = None
        self._operation_finished()
        rounds = attempt.read_rounds_used + attempt.writeback_rounds_used
        selected = attempt.selected
        assert selected is not None
        effects = Effects()
        if not attempt.timer_expired:
            # Returned ahead of the deadline: disarm it.
            effects.cancel_timer(self._round_timer_id(attempt))
        effects.complete(
            OperationComplete(
                op_id=attempt.op_id,
                kind="read",
                value=selected.val,
                rounds=rounds,
                fast=rounds == 1,
                metadata={
                    "ts": selected.ts,
                    "read_rounds": attempt.read_rounds_used,
                    "writeback": attempt.did_writeback,
                    "is_bottom": is_bottom(selected.val),
                    **(
                        {"writer_id": selected.writer_id}
                        if selected.writer_id
                        else {}
                    ),
                },
            )
        )
        return effects

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        return {
            "process_id": self.process_id,
            "read_ts": self.read_ts,
            "busy": self.busy,
        }


@dataclass
class _LeaseState:
    """One lease instance: an acquisition in flight, or the held lease.

    ``grants`` maps each granting server to the ``(observed, epoch)`` pair of
    its :class:`~repro.core.messages.LeaseGrant`; ``cached`` is the value the
    lease vouches for (the selection of the fallback READ the acquisition rode
    on, or the previous lease's value for a renewal).
    """

    lease_id: int
    duration: float
    cached: Optional[TimestampValue] = None
    grants: Dict[str, Tuple[TimestampValue, int]] = field(default_factory=dict)
    active: bool = False


class LeasedReader(AtomicReader):
    """A reader serving contention-free reads from a quorum read lease.

    While the lease *holds*, ``READ()`` completes locally in **zero rounds**
    from the cached ``(ts, writer_id, value)`` pair; on expiry, revocation or
    incarnation-fence invalidation the reader falls back to the full Fig. 2
    protocol, and the fallback read doubles as the next acquisition attempt
    (the ``LEASE_RENEW`` broadcast travels with the round-1 ``READ`` — one
    batch frame per server under the batching layer).

    A lease holds when ``S - t`` servers granted it *cleanly*: a grant counts
    only if the ``observed`` pair it carries does not exceed the cached pair,
    so a server that processed a newer write before granting can never vouch
    for the stale cache.  Safety then follows from quorum intersection: any
    write (or write-back) quorum intersects the clean granters in at least
    ``b + 1`` servers, of which one is honest and *withholds* its
    acknowledgement until this reader confirmed revocation or the lease
    expired — so no newer operation completes while the cache is being served.
    Expiry is tracked with a timer armed when the request is *sent*, which
    under both runtimes (virtual time in the simulator, scaled wall-clock in
    asyncio) expires no later than the granting servers' own windows.

    Incarnation fencing: grants record the granting server's ``epoch``.  A
    message from a higher epoch reveals the server crashed and recovered —
    its volatile lease table, and with it the withholding promise, is gone —
    so that grant is discarded and the lease dropped once the clean quorum is
    broken.  (The recovered server independently observes a full
    lease-duration grace period before acknowledging anything, so even an
    unfenced holder cannot be bypassed; see :class:`repro.lease.LeaseServer`.)
    """

    def __init__(
        self,
        reader_id: str,
        config: SystemConfig,
        lease_duration: float = 60.0,
        renew_fraction: float = 0.5,
        **kwargs: Any,
    ) -> None:
        super().__init__(reader_id, config, **kwargs)
        if lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        if not 0.0 < renew_fraction < 1.0:
            raise ValueError("renew_fraction must be within (0, 1)")
        self.lease_duration = lease_duration
        self.renew_fraction = renew_fraction
        self._lease: Optional[_LeaseState] = None
        self._acquiring: Optional[_LeaseState] = None
        self._lease_counter = 0
        self._renew_due = False
        self._server_epochs: Dict[str, int] = {}
        #: Diagnostics: reads served locally from the lease (zero rounds).
        self.lease_reads = 0

    # ------------------------------------------------------------ invocation
    def read(self) -> Effects:
        lease = self._lease
        if lease is not None and lease.active:
            self._operation_started()
            op_id = self._next_op_id()
            effects = self._complete_from_lease(op_id, lease)
            if self._renew_due and self._acquiring is None:
                self._renew_due = False
                effects.merge(self._start_acquisition(cached=lease.cached))
            return effects
        effects = super().read()
        # The fallback read doubles as the acquisition attempt — unless one is
        # still in flight: a read that returns before its grants are handled
        # must not discard them when the caller re-invokes at once.  The
        # pending attempt stays safe to finish (clean grants are judged
        # against its ``cached`` pair, which this read can only raise).
        if self._acquiring is None:
            effects.merge(self._start_acquisition())
        return effects

    def _complete_from_lease(self, op_id: int, lease: _LeaseState) -> Effects:
        cached = lease.cached
        assert cached is not None
        self._operation_finished()
        self.lease_reads += 1
        effects = Effects()
        effects.complete(
            OperationComplete(
                op_id=op_id,
                kind="read",
                value=cached.val,
                rounds=0,
                fast=True,
                metadata={
                    "ts": cached.ts,
                    "read_rounds": 0,
                    "writeback": False,
                    "lease": True,
                    "is_bottom": is_bottom(cached.val),
                    **(
                        {"writer_id": cached.writer_id}
                        if cached.writer_id
                        else {}
                    ),
                },
            )
        )
        return effects

    # ----------------------------------------------------------- acquisition
    def _start_acquisition(self, cached: Optional[TimestampValue] = None) -> Effects:
        self._lease_counter += 1
        state = _LeaseState(
            lease_id=self._lease_counter,
            duration=self.lease_duration,
            cached=cached,
        )
        self._acquiring = state
        effects = Effects()
        effects.broadcast(
            self.config.server_ids(),
            LeaseRenew(
                sender=self.process_id,
                lease_id=state.lease_id,
                duration=state.duration,
            ),
        )
        # Expiry is measured from *now* (the send), a strict lower bound on
        # every server's grant time, so the reader always stops serving before
        # any granter releases a withheld acknowledgement.
        effects.start_timer(self._lease_timer_id(state.lease_id, "expire"), state.duration)
        effects.start_timer(
            self._lease_timer_id(state.lease_id, "renew"),
            state.duration * self.renew_fraction,
        )
        return effects

    def _lease_timer_id(self, lease_id: int, label: str) -> str:
        return f"{self.process_id}/lease{lease_id}/{label}"

    def _cancel_lease_timers(self, effects: Effects, lease_id: int) -> None:
        """Disarm both timers of a dead lease instance.

        A dropped or superseded lease would otherwise leave its expire (and
        possibly renew) timer pending until the full lease duration elapsed —
        dead events the runtimes would pop and discard.  Cancelling an
        already-fired timer is a no-op, so this is safe whichever of the two
        timers already ran.
        """
        effects.cancel_timer(self._lease_timer_id(lease_id, "expire"))
        effects.cancel_timer(self._lease_timer_id(lease_id, "renew"))

    def _clean_grant_count(self, state: _LeaseState) -> int:
        if state.cached is None:
            return 0
        cached_key = state.cached.order_key
        return sum(
            1
            for observed, _ in state.grants.values()
            if observed.order_key <= cached_key
        )

    def _maybe_activate(self, state: _LeaseState) -> None:
        if state.active or state.cached is None:
            return
        if self._clean_grant_count(state) < self.config.round_quorum:
            return
        state.active = True
        if state is self._acquiring:
            self._acquiring = None
        self._lease = state

    # ----------------------------------------------------------------- input
    def handle_message(self, message: Message) -> Effects:
        self._observe_epoch(message)
        if isinstance(message, LeaseGrant):
            return self._on_lease_grant(message)
        if isinstance(message, LeaseRevoke):
            return self._on_lease_revoke(message)
        return super().handle_message(message)

    def _observe_epoch(self, message: Message) -> None:
        """Incarnation fencing: drop grants from servers that recovered."""
        epoch = message.epoch
        if epoch <= self._server_epochs.get(message.sender, 0):
            return
        self._server_epochs[message.sender] = epoch
        for slot in ("_lease", "_acquiring"):
            state = getattr(self, slot)
            if state is None:
                continue
            grant = state.grants.get(message.sender)
            if grant is not None and grant[1] < epoch:
                del state.grants[message.sender]
                if state.active and self._clean_grant_count(state) < self.config.round_quorum:
                    # The recovered server forgot its withholding promise, so
                    # the lease quorum no longer intersects every write quorum
                    # in an honest withholding server: stop serving.
                    setattr(self, slot, None)

    def _on_lease_grant(self, grant: LeaseGrant) -> Effects:
        effects = Effects()
        previous = self._lease
        for state in (self._acquiring, self._lease):
            if state is not None and state.lease_id == grant.lease_id:
                # Grants keep landing after the read they rode on returned and
                # after the S - t-th one activated the lease; each is one more
                # withholding granter the lease can afford to lose to a fence.
                state.grants[grant.sender] = (grant.observed, grant.epoch)
                self._maybe_activate(state)
                break
        if previous is not None and self._lease is not previous:
            # A renewal activated and superseded the held lease: its expire
            # timer (and any unfired renew timer) is dead — disarm it.
            self._cancel_lease_timers(effects, previous.lease_id)
        return effects

    def _on_lease_revoke(self, revoke: LeaseRevoke) -> Effects:
        # Stop serving *before* the acknowledgement leaves: the state changes
        # here, the ack below reaches the transport only after this handler
        # returns, so a revoking server never sees the ack while a read could
        # still be served from the revoked lease.  A match against EITHER the
        # active lease or the in-flight renewal drops BOTH: servers keep one
        # lease per holder, so a renewal supersedes the active lease in their
        # tables — acking a revoke of the renewal while still serving the
        # superseded lease would let the write's withheld acks go free.
        effects = Effects()
        if any(
            state is not None and state.lease_id == revoke.lease_id
            for state in (self._lease, self._acquiring)
        ):
            for state in (self._lease, self._acquiring):
                if state is not None:
                    self._cancel_lease_timers(effects, state.lease_id)
            self._lease = None
            self._acquiring = None
        effects.send(
            revoke.sender,
            LeaseRevokeAck(sender=self.process_id, lease_id=revoke.lease_id),
        )
        return effects

    # ----------------------------------------------------------------- timers
    def on_timer(self, timer_id: str) -> Effects:
        if timer_id.startswith(f"{self.process_id}/lease"):
            return self._on_lease_timer(timer_id)
        return super().on_timer(timer_id)

    def _on_lease_timer(self, timer_id: str) -> Effects:
        remainder = timer_id[len(f"{self.process_id}/lease") :]
        id_text, _, label = remainder.partition("/")
        try:
            lease_id = int(id_text)
        except ValueError:
            return Effects()
        if label == "expire":
            for slot in ("_lease", "_acquiring"):
                state = getattr(self, slot)
                if state is not None and state.lease_id == lease_id:
                    setattr(self, slot, None)
        elif label == "renew":
            lease = self._lease
            if lease is not None and lease.lease_id == lease_id and lease.active:
                # Renew lazily, on the next lease-served read: an idle reader
                # must not keep a timer chain alive forever (the simulator's
                # quiescence would never be reached).
                self._renew_due = True
        return Effects()

    # -------------------------------------------------------------- fallback
    def _complete(self) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        selected = attempt.selected
        assert selected is not None
        effects = super()._complete()
        acquiring = self._acquiring
        if acquiring is not None and (
            acquiring.cached is None or selected.order_key > acquiring.cached.order_key
        ):
            # Seed the attempt this read rode on, or raise the cache of an
            # earlier one still in flight: grants that observed up to the
            # pair just returned are clean with respect to it.
            acquiring.cached = selected
            self._maybe_activate(acquiring)
        return effects

    # ------------------------------------------------------------ inspection
    @property
    def lease_held(self) -> bool:
        """Whether a read lease is currently active."""
        return self._lease is not None and self._lease.active

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["lease"] = {
            "held": self.lease_held,
            "duration": self.lease_duration,
            "lease_reads": self.lease_reads,
            "cached": self._lease.cached if self._lease else None,
        }
        return info
