"""Server automaton of the core algorithm (Figure 3).

A server keeps three timestamp-value registers:

``pw``
    the latest *pre-written* pair (updated in the PW phase and in round 1 of a
    write-back),
``w``
    the latest pair whose first W round the server witnessed (round > 1),
``vw``
    the latest pair whose final W round the server witnessed (round > 2),

plus, per reader, the highest announced read timestamp ``tsr_rj`` and the
frozen entry ``frozen_rj``.  Servers never talk to each other and only reply to
client messages, which is the paper's data-centric model.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from .automaton import Automaton, Effects
from .config import SystemConfig
from .messages import (
    CLIENT_BOUND_MESSAGES,
    BaselineQuery,
    BaselineStore,
    LeaseRenew,
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
    WriterLeaseRenew,
    WriterLeaseRevokeAck,
)
from .types import (
    INITIAL_FROZEN,
    INITIAL_PAIR,
    INITIAL_READ_TIMESTAMP,
    FreezeDirective,
    FrozenEntry,
    NewReadReport,
    TimestampValue,
)


class PairRegister(Automaton):
    """A server register whose durable state is timestamp-value pairs, moved
    only by :meth:`advance`: the WAL and read-lease revocation read what
    moved from the step's effects, not from the fields."""

    #: The durable pair fields, in the order a step advances and reports them.
    PAIR_FIELDS: Tuple[str, ...] = ("pw", "w", "vw")

    def advance(self, effects: Effects, field: str, candidate: TimestampValue) -> None:
        """The ``update(localtsval, tsval)`` helper of Fig. 3 (line 17):
        adopt *candidate* into *field* if its ``(ts, writer_id)`` is strictly
        higher (by timestamp alone for the paper's single writer, whose pairs
        carry no writer id), and report ``(register_id, field, candidate)``.
        The ``order_key`` comparison is spelled out: every write steps it."""
        current = getattr(self, field)
        if candidate.ts > current.ts or (
            candidate.ts == current.ts and candidate.writer_id > current.writer_id
        ):
            setattr(self, field, candidate)
            effects.advanced += ((self.register_id, field, candidate),)

    def export_state(self) -> Dict[str, Any]:
        """The durable pairs, for a snapshot or an eviction spill."""
        return {field: getattr(self, field) for field in self.PAIR_FIELDS}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt the pairs of *state* (an export or one WAL record's field)
        by the same monotone rule, unreported: a snapshot and a WAL suffix
        restored in any order, any number of times, converge."""
        for field in self.PAIR_FIELDS:
            if field in state:
                self.advance(Effects(), field, state[field])


class StorageServer(PairRegister):
    """One replica ``s_i`` implementing the server side of Figures 1-3."""

    # A bare server never sees client-bound replies; lease traffic targets a
    # LeaseServer wrapper and baseline requests target the ABD baselines.
    DISPATCH_IGNORES = CLIENT_BOUND_MESSAGES + (
        LeaseRenew,
        LeaseRevokeAck,
        WriterLeaseRenew,
        WriterLeaseRevokeAck,
        BaselineQuery,
        BaselineStore,
    )

    def __init__(self, server_id: str, config: SystemConfig, register_id: str = "") -> None:
        super().__init__(server_id, register_id)
        self.config = config
        self.pw: TimestampValue = INITIAL_PAIR
        self.w: TimestampValue = INITIAL_PAIR
        self.vw: TimestampValue = INITIAL_PAIR
        #: Per reader, from its first READ or freeze directive on
        #: (:meth:`_ensure_reader`): ``tsr_rj`` and ``frozen_rj``.  A reader
        #: not in them holds the initial values.
        self.read_ts: Dict[str, int] = {}
        self.frozen: Dict[str, FrozenEntry] = {}

    # ------------------------------------------------------------------ util
    def _ensure_reader(self, reader_id: str) -> None:
        """Admit a reader at its initial values: the one place its entries
        are made, so a register holds none for readers it never heard of."""
        if reader_id not in self.read_ts:
            self.read_ts[reader_id] = INITIAL_READ_TIMESTAMP
            self.frozen[reader_id] = INITIAL_FROZEN

    # -------------------------------------------------------------- dispatch
    def handle_message(self, message: Message) -> Effects:
        if isinstance(message, PreWrite):
            return self._on_pre_write(message)
        if isinstance(message, Read):
            return self._on_read(message)
        if isinstance(message, Write):
            return self._on_write(message)
        if isinstance(message, TimestampQuery):
            return self._on_timestamp_query(message)
        return Effects()

    # ----------------------------------------------------- MWMR query phase
    def _on_timestamp_query(self, message: TimestampQuery) -> Effects:
        """Read phase of an MWMR WRITE: report the highest stored pairs."""
        effects = Effects()
        effects.send(
            message.sender,
            TimestampQueryAck(
                sender=self.process_id,
                register_id=self.register_id,
                op_id=message.op_id,
                pw=self.pw,
                w=self.w,
            ),
        )
        return effects

    # ------------------------------------------------------------- PW phase
    def _apply_freeze_directives(self, directives: Iterable[FreezeDirective]) -> None:
        """Fig. 3, lines 5-6: adopt freeze directives that are not stale."""
        for directive in directives:
            self._ensure_reader(directive.reader_id)
            if directive.read_ts >= self.read_ts[directive.reader_id]:
                self.frozen[directive.reader_id] = FrozenEntry(
                    pair=directive.pair, read_ts=directive.read_ts
                )

    def _collect_newread(self) -> Tuple[NewReadReport, ...]:
        """Fig. 3, line 7: readers whose announced READ has not been frozen for."""
        reports = []
        for reader_id, announced_ts in self.read_ts.items():
            if announced_ts > self.frozen[reader_id].read_ts:
                reports.append(NewReadReport(reader_id=reader_id, read_ts=announced_ts))
        return tuple(sorted(reports, key=lambda report: report.reader_id))

    def _on_pre_write(self, message: PreWrite) -> Effects:
        effects = Effects()
        self.advance(effects, "pw", message.pw)
        self.advance(effects, "w", message.w)
        self._apply_freeze_directives(message.frozen)
        newread = self._collect_newread()
        effects.send(
            message.sender,
            PreWriteAck(
                sender=self.process_id,
                register_id=self.register_id,
                ts=message.ts,
                newread=newread,
            ),
        )
        return effects

    # ---------------------------------------------------------------- READs
    def _on_read(self, message: Read) -> Effects:
        reader_id = message.sender
        self._ensure_reader(reader_id)
        # Fig. 3, line 10: only slow READ rounds (rnd > 1) announce themselves.
        if message.read_ts > self.read_ts[reader_id] and message.round > 1:
            self.read_ts[reader_id] = message.read_ts
        effects = Effects()
        effects.send(
            reader_id,
            ReadAck(
                sender=self.process_id,
                register_id=self.register_id,
                read_ts=message.read_ts,
                round=message.round,
                pw=self.pw,
                w=self.w,
                vw=self.vw,
                frozen=self.frozen[reader_id],
            ),
        )
        return effects

    # -------------------------------------------------------------- W phase
    def _on_write(self, message: Write) -> Effects:
        effects = Effects()
        self.advance(effects, "pw", message.pair)
        if message.round > 1:
            self.advance(effects, "w", message.pair)
        if message.round > 2:
            self.advance(effects, "vw", message.pair)
        self._apply_write_freeze(message)
        effects.send(
            message.sender,
            WriteAck(
                sender=self.process_id,
                register_id=self.register_id,
                round=message.round,
                ts=message.ts,
                from_writer=message.from_writer,
            ),
        )
        return effects

    def _apply_write_freeze(self, message: Write) -> None:
        """Hook for variants whose writer piggybacks freezes on W messages.

        The core algorithm sends freeze directives only in PW messages, so this
        is a no-op here; the Appendix C variant overrides it.
        """

    # ------------------------------------------------------------ durability
    def export_state(self) -> Dict[str, Any]:
        """Snapshot of the durable register state (for the persistence layer).

        The three timestamp-value registers plus the per-reader read/freeze
        bookkeeping: everything a recovering replica needs to rejoin with its
        pre-crash knowledge instead of eroding the quorum margin.
        """
        state = super().export_state()
        return {**state, "read_ts": dict(self.read_ts), "frozen": dict(self.frozen)}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a state snapshot produced by :meth:`export_state`; the
        per-reader entries merge monotonically like the pairs."""
        super().restore_state(state)
        for reader_id, read_ts in state.get("read_ts", {}).items():
            self._ensure_reader(reader_id)
            self.read_ts[reader_id] = max(self.read_ts[reader_id], read_ts)
        for reader_id, frozen in state.get("frozen", {}).items():
            self._ensure_reader(reader_id)
            if frozen.read_ts >= self.frozen[reader_id].read_ts:
                self.frozen[reader_id] = frozen

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        return {"process_id": self.process_id, **self.export_state()}
