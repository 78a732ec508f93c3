"""Writer automaton of the core algorithm (Figure 1).

The WRITE operation has two phases:

* a **pre-write (PW) phase** — one round-trip in which the new timestamp-value
  pair is sent to all servers together with any pending freeze directives, with
  a timer set to the synchronous round-trip bound.  The WRITE returns — it was
  *fast* (one round) — on the acknowledgement that brings it to ``S - fw``; the
  timer is the deadline after which, with ``S - t`` acknowledgements, it stops
  hoping for that (:class:`~repro.core.automaton.TimerPolicy`; the paper's
  Fig. 1 l.5 waits out the timer even when the round is already decided);
* otherwise a **write (W) phase** of two additional rounds (rounds 2 and 3),
  each waiting for ``S - t`` acknowledgements.

Between the two phases the writer runs ``freezevalues()``: any reader that
``b + 1`` servers report as having an outstanding slow READ gets the current
pre-written pair frozen for it; the resulting directives ride on the *next*
WRITE's PW message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .automaton import (
    ClientAutomaton,
    Effects,
    OperationComplete,
    TimerPolicy,
    completion_flags,
)
from .config import SystemConfig
from .lease import WRITER_LEASE, LeaseHolder
from .messages import (
    SERVER_BOUND_MESSAGES,
    BaselineQueryReply,
    BaselineStoreAck,
    LeaseGrant,
    LeaseRevoke,
    Message,
    PreWrite,
    PreWriteAck,
    ReadAck,
    TimestampQuery,
    TimestampQueryAck,
    Write,
    WriteAck,
    WriterLeaseGrant,
    WriterLeaseRevoke,
)
from .types import (
    INITIAL_PAIR,
    INITIAL_READ_TIMESTAMP,
    FreezeDirective,
    TimestampValue,
    freshest,
    is_bottom,
)


@dataclass
class _WriteAttempt:
    """Bookkeeping for the currently outstanding WRITE operation."""

    op_id: int
    value: Any
    ts: int
    phase: str = "pw"  # optional "query", then "pw", "w2", "w3", then "done"
    pw_acks: Dict[str, PreWriteAck] = field(default_factory=dict)
    timer_expired: bool = False
    w_acks: Dict[int, Set[str]] = field(default_factory=dict)
    rounds_used: int = 0
    query_acks: Dict[str, TimestampQueryAck] = field(default_factory=dict)
    # Conditional operations (CAS / read-modify-write): the expectation, the
    # transform, and the pair the decision was made against.
    cas: bool = False
    cas_expected: Any = None
    rmw_fn: Optional[Callable[[Any], Any]] = None
    observed: Optional[TimestampValue] = None
    from_lease: bool = False


class AtomicWriter(ClientAutomaton):
    """The single writer ``w`` of the SWMR atomic storage (Fig. 1)."""

    #: Last round of the W phase (the core algorithm runs rounds 2 and 3; the
    #: Appendix C and D variants stop after round 2).
    FINAL_W_ROUND = 3

    # The writer consumes its own phase acks; read acks, read-lease traffic
    # and baseline replies address readers/leased wrappers, never the writer.
    # Writer-lease grants/revokes are consumed by the LeasedWriter subclass.
    DISPATCH_IGNORES = SERVER_BOUND_MESSAGES + (
        ReadAck,
        LeaseGrant,
        LeaseRevoke,
        WriterLeaseGrant,
        WriterLeaseRevoke,
        BaselineQueryReply,
        BaselineStoreAck,
    )

    #: Where freeze directives travel: ``"pw"`` means inside the *next* WRITE's
    #: PW message (core algorithm, Fig. 1); ``"w"`` means inside the *current*
    #: WRITE's round-2 W message (Appendix C variant, Fig. 6).
    FREEZE_CHANNEL = "pw"

    def __init__(
        self,
        config: SystemConfig,
        timer_delay: float = 10.0,
        writer_id: Optional[str] = None,
        enable_fast_path: bool = True,
        timer_policy: TimerPolicy = TimerPolicy.DEADLINE,
        mwmr: bool = False,
        register_id: str = "",
    ) -> None:
        """Create the writer.

        ``enable_fast_path=False`` removes line 8 of Fig. 1 — the paper's
        "trading writes" ablation (Section 5): every WRITE runs all three
        rounds.  ``timer_policy`` says what the PW-phase timer of line 5
        means (see :class:`~repro.core.automaton.TimerPolicy`): a wait
        (paper-faithful), a deadline (the default — the WRITE returns on the
        acknowledgement that makes it fast) or no timer at all, which
        sacrifices the fast path (the writer may act on only ``S - t``
        acknowledgements) and is used by the always-slow baseline.

        ``mwmr=True`` lifts the single-writer restriction: every WRITE is
        preceded by a *read phase* (a :class:`TimestampQuery` round collecting
        the highest stored pair from ``S - t`` servers) and writes the pair
        ``(max_ts + 1, value, writer_id)`` — the classic ABD-lineage
        multi-writer generalisation with lexicographic ``(ts, writer_id)``
        ordering.  Any completed WRITE stored its pair at ``S - t`` servers and
        any query hears from ``S - t``, so the quorums intersect in at least
        ``S - 2t = b + 1`` servers, of which at least one is honest: the
        chosen timestamp strictly dominates every completed WRITE.  A
        malicious server forging a huge timestamp in its query reply only
        makes this writer skip timestamps on this one register — order, and
        therefore safety, is unaffected, and the forgery cannot escape the
        register it was uttered on.
        """
        super().__init__(
            writer_id or config.writer_id, timer_delay=timer_delay, register_id=register_id
        )
        self.config = config
        self.enable_fast_path = enable_fast_path
        self.timer_policy = timer_policy
        self.mwmr = mwmr
        self.ts: int = 0
        self.pw: TimestampValue = INITIAL_PAIR
        self.w: TimestampValue = INITIAL_PAIR
        #: The read timestamp last frozen for each reader (a reader not in it
        #: is at the initial one).
        self.read_ts: Dict[str, int] = {}
        self.frozen: Tuple[FreezeDirective, ...] = ()
        self._attempt: Optional[_WriteAttempt] = None

    def _pair_writer_id(self) -> str:
        """The writer identity stamped into pairs ("" in the SWMR protocol)."""
        return self.process_id if self.mwmr else ""

    # ------------------------------------------------------------ invocation
    def write(self, value: Any) -> Effects:
        """Invoke ``WRITE(value)``; returns the effects of its first round."""
        self._operation_started()
        op_id = self._next_op_id()
        if self.mwmr:
            # MWMR read phase: learn the highest pair before picking a
            # timestamp.  The PW phase starts once S - t replies are in.
            return self._begin_query(
                _WriteAttempt(op_id=op_id, value=value, ts=0, phase="query")
            )
        self.ts += 1
        self._attempt = _WriteAttempt(op_id=op_id, value=value, ts=self.ts)
        return self._start_pw_phase()

    def compare_and_swap(self, expected: Any, new: Any) -> Effects:
        """Invoke ``CAS(expected, new)``: write ``new`` iff the register holds
        ``expected``.

        The query round doubles as the read: the freshest pair across
        ``S - t`` replies is the observation.  On a match the attempt proceeds
        exactly like a WRITE (and its completion records which pair it
        replaced); on a mismatch the operation completes immediately as a
        *failed CAS* — a read that linearizes at the observed pair.  Pass
        ``expected=None`` to match the unwritten register (⊥).

        Without a writer lease this is optimistic: a write that lands between
        the query and the PW phase is exactly the lost update
        :func:`~repro.verify.atomicity.check_atomicity` flags.  Under an
        active :class:`LeasedWriter` lease the decision is made against the
        cached pair and the race disappears.
        """
        if not self.mwmr:
            raise RuntimeError("compare_and_swap requires an MWMR writer")
        self._operation_started()
        return self._begin_query(
            _WriteAttempt(
                op_id=self._next_op_id(),
                value=new,
                ts=0,
                phase="query",
                cas=True,
                cas_expected=expected,
            )
        )

    def read_modify_write(self, fn: Callable[[Any], Any]) -> Effects:
        """Invoke ``RMW(fn)``: atomically replace the current value ``v`` with
        ``fn(v)`` (``fn(None)`` when the register is unwritten).

        Same machinery as :meth:`compare_and_swap`, but the transform always
        applies — the completion records the observed pair so the checker can
        verify no write slipped between observation and replacement.
        """
        if not self.mwmr:
            raise RuntimeError("read_modify_write requires an MWMR writer")
        self._operation_started()
        return self._begin_query(
            _WriteAttempt(
                op_id=self._next_op_id(), value=None, ts=0, phase="query", rmw_fn=fn
            )
        )

    def _begin_query(self, attempt: _WriteAttempt) -> Effects:
        self._attempt = attempt
        effects = Effects()
        effects.broadcast(
            self.config.server_ids(),
            TimestampQuery(
                sender=self.process_id, register_id=self.register_id, op_id=attempt.op_id
            ),
        )
        attempt.rounds_used = 1
        return effects

    def _start_pw_phase(self) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        attempt.phase = "pw"
        self.pw = TimestampValue(attempt.ts, attempt.value, self._pair_writer_id())

        effects = Effects()
        if self.timer_policy is TimerPolicy.NONE:
            attempt.timer_expired = True
        else:
            effects.start_timer(self._timer_id(attempt.op_id, "pw"), self.timer_delay)
        message = PreWrite(
            sender=self.process_id,
            register_id=self.register_id,
            ts=attempt.ts,
            pw=self.pw,
            w=self.w,
            frozen=self.frozen if self.FREEZE_CHANNEL == "pw" else (),
        )
        effects.broadcast(self.config.server_ids(), message)
        attempt.rounds_used += 1
        return effects

    # ----------------------------------------------------------------- input
    def handle_message(self, message: Message) -> Effects:
        if isinstance(message, TimestampQueryAck):
            return self._on_query_ack(message)
        if isinstance(message, PreWriteAck):
            return self._on_pw_ack(message)
        if isinstance(message, WriteAck):
            return self._on_write_ack(message)
        return Effects()

    # ------------------------------------------------------------ query phase
    def _on_query_ack(self, ack: TimestampQueryAck) -> Effects:
        attempt = self._attempt
        if attempt is None or attempt.phase != "query":
            return Effects()
        if ack.op_id != attempt.op_id:
            return Effects()  # stale or forged acknowledgement
        attempt.query_acks[ack.sender] = ack
        if len(attempt.query_acks) < self.config.round_quorum:
            return Effects()
        highest = freshest(
            TimestampValue(self.ts, None, self._pair_writer_id()),
            *(ack.pw for ack in attempt.query_acks.values()),
            *(ack.w for ack in attempt.query_acks.values()),
        )
        if attempt.cas or attempt.rmw_fn is not None:
            # The observation excludes the writer's own synthetic (ts, None)
            # floor pair — a conditional op compares against what the servers
            # actually store.
            observed = freshest(
                *(ack.pw for ack in attempt.query_acks.values()),
                *(ack.w for ack in attempt.query_acks.values()),
            )
            attempt.observed = observed
            current = None if is_bottom(observed.val) else observed.val
            if attempt.rmw_fn is not None:
                attempt.value = attempt.rmw_fn(current)
            elif current != attempt.cas_expected:
                return self._complete_conditional_failure(observed)
        attempt.ts = highest.ts + 1
        self.ts = attempt.ts
        return self._start_pw_phase()

    def _complete_conditional_failure(self, observed: TimestampValue) -> Effects:
        """Complete a mismatched CAS: it linearizes as a read of ``observed``."""
        attempt = self._attempt
        assert attempt is not None
        attempt.phase = "done"
        self._attempt = None
        self._operation_finished()
        effects = Effects()
        # No timer to cancel: the query phase ends before the PW timer is armed.
        effects.complete(
            OperationComplete(
                op_id=attempt.op_id,
                kind="read",
                value=observed.val,
                rounds=attempt.rounds_used,
                fast=attempt.rounds_used <= 1,
                ts=observed.ts,
                writer_id=observed.writer_id,
                register_id=self.register_id,
                flags=completion_flags(is_bottom=is_bottom(observed.val), mwmr=True),
                details={"cas": True, "cas_failed": True, "cas_expected": attempt.cas_expected},
            )
        )
        return effects

    def on_timer(self, timer_id: str) -> Effects:
        attempt = self._attempt
        if attempt is None or attempt.phase != "pw":
            return Effects()
        if timer_id != self._timer_id(attempt.op_id, "pw"):
            return Effects()
        attempt.timer_expired = True
        return self._maybe_finish_pw_phase()

    # -------------------------------------------------------------- PW phase
    def _on_pw_ack(self, ack: PreWriteAck) -> Effects:
        attempt = self._attempt
        if attempt is None or attempt.phase != "pw":
            return Effects()
        if ack.ts != attempt.ts:
            return Effects()  # stale or forged acknowledgement
        attempt.pw_acks[ack.sender] = ack
        return self._maybe_finish_pw_phase()

    def _maybe_finish_pw_phase(self) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        acks = len(attempt.pw_acks)
        # Fig. 1, line 8 is monotone in the ack set: once S - fw servers
        # acknowledged, the timer can only confirm the fast path.
        fast = self.enable_fast_path and acks >= self.config.fast_write_quorum
        if not attempt.timer_expired:
            # Before the deadline only a decided round ends (S - fw >= S - t).
            if not (fast and self.timer_policy is TimerPolicy.DEADLINE):
                return Effects()
        elif acks < self.config.round_quorum:
            return Effects()

        # Fig. 1, lines 6-7: adopt the written pair, recompute the frozen set.
        self.frozen = ()
        self.w = TimestampValue(attempt.ts, attempt.value, self._pair_writer_id())
        self._freeze_values(attempt)

        if fast:
            return self._complete(fast=True)

        # Otherwise enter the W phase (rounds 2 and 3).
        return self._start_w_round(2)

    def _freeze_values(self, attempt: _WriteAttempt) -> None:
        """``freezevalues()`` of Fig. 1 (lines 13-15)."""
        new_directives: List[FreezeDirective] = list(self.frozen)
        reports_by_reader: Dict[str, List[int]] = {}
        for ack in attempt.pw_acks.values():
            for report in ack.newread:
                if report.read_ts > self.read_ts.get(report.reader_id, INITIAL_READ_TIMESTAMP):
                    reports_by_reader.setdefault(report.reader_id, []).append(
                        report.read_ts
                    )
        for reader_id, timestamps in sorted(reports_by_reader.items()):
            if len(timestamps) < self.config.freeze_quorum:
                continue
            timestamps.sort(reverse=True)
            # Fig. 1, line 14: the (b+1)-st highest announced read timestamp.
            chosen = timestamps[self.config.freeze_quorum - 1]
            self.read_ts[reader_id] = chosen
            new_directives.append(
                FreezeDirective(reader_id=reader_id, pair=self.pw, read_ts=chosen)
            )
        self.frozen = tuple(new_directives)

    # --------------------------------------------------------------- W phase
    def _start_w_round(self, round_number: int) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        attempt.phase = f"w{round_number}"
        attempt.w_acks[round_number] = set()
        attempt.rounds_used += 1
        frozen = ()
        if self.FREEZE_CHANNEL == "w" and round_number == 2:
            frozen = self.frozen
        effects = Effects()
        message = Write(
            sender=self.process_id,
            register_id=self.register_id,
            round=round_number,
            ts=attempt.ts,
            pair=self.pw,
            frozen=frozen,
            from_writer=True,
        )
        effects.broadcast(self.config.server_ids(), message)
        if frozen:
            # Fig. 6, line 10: the directives have been shipped; forget them.
            self.frozen = ()
        return effects

    def _on_write_ack(self, ack: WriteAck) -> Effects:
        attempt = self._attempt
        if attempt is None or not attempt.phase.startswith("w"):
            return Effects()
        if not ack.from_writer:
            return Effects()  # echo of a reader write-back round, not ours
        round_number = int(attempt.phase[1:])
        if ack.round != round_number or ack.ts != attempt.ts:
            return Effects()
        attempt.w_acks[round_number].add(ack.sender)
        if len(attempt.w_acks[round_number]) < self.config.round_quorum:
            return Effects()
        if round_number < self.FINAL_W_ROUND:
            return self._start_w_round(round_number + 1)
        return self._complete(fast=False)

    # ------------------------------------------------------------ completion
    def _complete(self, fast: bool) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        attempt.phase = "done"
        self._attempt = None
        self._operation_finished()
        effects = Effects()
        if not attempt.timer_expired:
            # Returned ahead of the deadline: disarm it.
            effects.cancel_timer(self._timer_id(attempt.op_id, "pw"))
        effects.complete(
            OperationComplete(
                op_id=attempt.op_id,
                kind="write",
                value=attempt.value,
                rounds=attempt.rounds_used,
                fast=fast,
                ts=attempt.ts,
                writer_id=self._pair_writer_id(),
                register_id=self.register_id,
                flags=completion_flags(
                    pw_acks=len(attempt.pw_acks),
                    frozen_directives=len(self.frozen),
                    **({"mwmr": True} if self.mwmr else {}),
                    **({"lease": True} if attempt.from_lease else {}),
                ),
                details=self._conditional_details(attempt),
            )
        )
        return effects

    def _conditional_details(self, attempt: _WriteAttempt) -> Optional[Dict[str, Any]]:
        """Completion details of a *successful* conditional write: which pair
        the decision observed, so the checker can detect lost updates."""
        if not attempt.cas and attempt.rmw_fn is None:
            return None
        observed = attempt.observed
        assert observed is not None
        return {
            ("cas" if attempt.cas else "rmw"): True,
            "observed_ts": observed.ts,
            "observed_writer": observed.writer_id,
            "observed_bottom": is_bottom(observed.val),
        }

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        return {
            "process_id": self.process_id,
            "ts": self.ts,
            "pw": self.pw,
            "w": self.w,
            "read_ts": dict(self.read_ts),
            "frozen": self.frozen,
            "busy": self.busy,
            "mwmr": self.mwmr,
        }


class LeasedWriter(AtomicWriter):
    """An MWMR writer that skips the timestamp-query round under a lease.

    The MWMR write costs two phases: a :class:`TimestampQuery` round to learn
    the highest stored pair, then the PW phase.  A writer lease caches the
    outcome of the first: while ``S - t`` servers have granted this writer a
    lease *clean* with respect to its cached pair, every granting server parks
    competing writers' queries and withholds their phase acks — so no other
    write can complete, the cache stays the register's freshest pair, and this
    writer may write ``(cached.ts + 1, value)`` straight away: **one round**,
    the SWMR fast-path cost.

    Conditional operations decide locally under a held lease:
    :meth:`compare_and_swap` compares against the cached value (a mismatch
    completes in **zero rounds**) and :meth:`read_modify_write` transforms it.
    Without a lease all three fall back to the optimistic query-phase protocol
    of :class:`AtomicWriter` with an acquisition riding along.

    The lease itself is the shared :class:`~repro.core.lease.LeaseHolder`
    bound to the writer role; this class keeps only what the lease lets a
    writer skip.
    """

    def __init__(
        self,
        config: SystemConfig,
        lease_duration: float = 60.0,
        timer_delay: float = 10.0,
        writer_id: Optional[str] = None,
        enable_fast_path: bool = True,
        timer_policy: TimerPolicy = TimerPolicy.DEADLINE,
        register_id: str = "",
    ) -> None:
        super().__init__(
            config,
            timer_delay=timer_delay,
            writer_id=writer_id,
            enable_fast_path=enable_fast_path,
            timer_policy=timer_policy,
            mwmr=True,
            register_id=register_id,
        )
        self.lease = LeaseHolder(
            WRITER_LEASE, self.process_id, config, lease_duration, register_id
        )
        #: WRITE/CAS/RMW operations whose PW phase skipped the query round.
        self.lease_writes = 0
        #: Conditional operations decided against the cached pair.
        self.lease_conditionals = 0

    # ------------------------------------------------------------ invocation
    def write(self, value: Any) -> Effects:
        cached = self._cached_pair()
        if cached is None:
            return self._riding(super().write(value))
        return self._leased_write(value, cached)

    def compare_and_swap(self, expected: Any, new: Any) -> Effects:
        cached = self._cached_pair()
        if cached is None:
            return self._riding(super().compare_and_swap(expected, new))
        self.lease_conditionals += 1
        current = None if is_bottom(cached.val) else cached.val
        if current != expected:
            return self._local_conditional_failure(cached, expected)
        return self._leased_write(new, cached, cas=True, cas_expected=expected)

    def read_modify_write(self, fn: Callable[[Any], Any]) -> Effects:
        cached = self._cached_pair()
        if cached is None:
            return self._riding(super().read_modify_write(fn))
        self.lease_conditionals += 1
        current = None if is_bottom(cached.val) else cached.val
        return self._leased_write(fn(current), cached, rmw_fn=fn)

    @property
    def lease_held(self) -> bool:
        """Whether a writer lease is currently active."""
        return self.lease.held is not None

    def _cached_pair(self) -> Optional[TimestampValue]:
        """The register's freshest pair, if a held lease vouches for it."""
        held = self.lease.held
        return None if held is None else held.cached

    def _riding(self, effects: Effects) -> Effects:
        """A fallback operation carries the next acquisition attempt."""
        self.lease.acquire(effects)
        return effects

    def _leased_write(
        self,
        value: Any,
        cached: TimestampValue,
        cas: bool = False,
        cas_expected: Any = None,
        rmw_fn: Optional[Callable[[Any], Any]] = None,
    ) -> Effects:
        """Start a 1-round write at ``cached.ts + 1`` — no query round.  A
        conditional operation was decided against *cached*, its observation."""
        self._operation_started()
        self._attempt = _WriteAttempt(
            op_id=self._next_op_id(),
            value=value,
            ts=cached.ts + 1,
            cas=cas,
            cas_expected=cas_expected,
            rmw_fn=rmw_fn,
            observed=cached,
            from_lease=True,
        )
        self.ts = cached.ts + 1
        self.lease_writes += 1
        effects = self._start_pw_phase()
        self.lease.renew_if_due(effects)
        return effects

    def _local_conditional_failure(self, cached: TimestampValue, expected: Any) -> Effects:
        """A CAS mismatch decided from the cache: zero rounds, reads ``cached``."""
        self._operation_started()
        op_id = self._next_op_id()
        self._operation_finished()
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
                flags=completion_flags(lease=True, is_bottom=is_bottom(cached.val), mwmr=True),
                details={"cas": True, "cas_failed": True, "cas_expected": expected},
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

    # ------------------------------------------------------------ completion
    def _complete(self, fast: bool) -> Effects:
        attempt = self._attempt
        assert attempt is not None
        pair = TimestampValue(attempt.ts, attempt.value, self._pair_writer_id())
        effects = super()._complete(fast=fast)
        held = self.lease.held
        if held is not None:
            # The holder is the one writer advancing the register: its own
            # completed write is the new freshest pair.
            held.cached = pair
        self.lease.seed(pair, effects)
        return effects

    def _complete_conditional_failure(self, observed: TimestampValue) -> Effects:
        effects = super()._complete_conditional_failure(observed)
        self.lease.seed(observed, effects)
        return effects

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["lease"] = {
            **self.lease.describe(),
            "lease_writes": self.lease_writes,
            "lease_conditionals": self.lease_conditionals,
        }
        return info
