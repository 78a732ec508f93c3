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
from typing import Any, Dict, Optional, Set

from .automaton import (
    ClientAutomaton,
    Effects,
    OperationComplete,
    TimerPolicy,
    completion_flags,
)
from .config import SystemConfig
from .lease import READ_LEASE, LeaseHolder
from .messages import (
    SERVER_BOUND_MESSAGES,
    BaselineQueryReply,
    BaselineStoreAck,
    LeaseGrant,
    LeaseRevoke,
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
        register_id: str = "",
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
        super().__init__(reader_id, timer_delay=timer_delay, register_id=register_id)
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
            sender=self.process_id,
            register_id=self.register_id,
            read_ts=attempt.read_ts,
            round=attempt.round,
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
            register_id=self.register_id,
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
                ts=selected.ts,
                writer_id=selected.writer_id,
                register_id=self.register_id,
                flags=completion_flags(
                    read_rounds=attempt.read_rounds_used,
                    writeback=attempt.did_writeback,
                    is_bottom=is_bottom(selected.val),
                ),
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


class LeasedReader(AtomicReader):
    """A reader serving contention-free reads from a quorum read lease.

    While the lease *holds*, ``READ()`` completes locally in **zero rounds**
    from the cached ``(ts, writer_id, value)`` pair; on expiry, revocation or
    incarnation-fence invalidation the reader falls back to the full Fig. 2
    protocol, and the fallback read doubles as the next acquisition attempt
    (the ``LEASE_RENEW`` broadcast travels with the round-1 ``READ``).

    The lease itself — acquisition, clean grants, activation, epoch fence,
    revocation, timers, and the argument for why a held lease is safe to
    serve from — is the shared :class:`~repro.core.lease.LeaseHolder` bound to
    the read role; this class keeps only what the lease lets a reader skip.
    """

    def __init__(
        self,
        reader_id: str,
        config: SystemConfig,
        lease_duration: float = 60.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(reader_id, config, **kwargs)
        self.lease = LeaseHolder(READ_LEASE, reader_id, config, lease_duration, self.register_id)
        #: Diagnostics: reads served locally from the lease (zero rounds).
        self.lease_reads = 0

    # ------------------------------------------------------------ invocation
    def read(self) -> Effects:
        held = self.lease.held
        if held is None:
            effects = super().read()
            self.lease.acquire(effects)
            return effects
        cached = held.cached
        assert cached is not None
        self._operation_started()
        op_id = self._next_op_id()
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
                ts=cached.ts,
                writer_id=cached.writer_id,
                register_id=self.register_id,
                flags=completion_flags(
                    read_rounds=0, writeback=False, lease=True, is_bottom=is_bottom(cached.val)
                ),
            )
        )
        self.lease.renew_if_due(effects)
        return effects

    # ----------------------------------------------------------------- input
    def handle_message(self, message: Message) -> Effects:
        effects = self.lease.handle_message(message)
        if effects is not None:
            return effects
        return super().handle_message(message)

    def on_timer(self, timer_id: str) -> Effects:
        if self.lease.on_timer(timer_id):
            return Effects()
        return super().on_timer(timer_id)

    # -------------------------------------------------------------- fallback
    def _complete(self) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        selected = attempt.selected
        assert selected is not None
        effects = super()._complete()
        self.lease.seed(selected, effects)
        return effects

    # ------------------------------------------------------------ inspection
    @property
    def lease_held(self) -> bool:
        """Whether a read lease is currently active."""
        return self.lease.held is not None

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["lease"] = {**self.lease.describe(), "lease_reads": self.lease_reads}
        return info
