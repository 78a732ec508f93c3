"""Multi-writer (MWMR) register client: one process, both roles.

The paper's protocol is SWMR: one distinguished writer, many readers.  The
MWMR extension (ROADMAP) lifts that restriction with lexicographic
``(ts, writer_id)`` timestamp pairs: every client may write, a WRITE first
queries the highest stored pair (one :class:`~repro.core.messages.TimestampQuery`
round) and then writes ``(max_ts + 1, writer_id)`` through the unchanged
PW/W machinery.  :class:`MultiWriterClient` is the client-side composition —
an :class:`~repro.core.writer.AtomicWriter` in MWMR mode and an
:class:`~repro.core.reader.AtomicReader` sharing one process identity and one
mailbox:

* ``PreWriteAck`` / ``TimestampQueryAck`` route to the writer role;
* ``ReadAck`` routes to the reader role;
* ``WriteAck`` routes on its echoed ``from_writer`` flag (servers echo the
  flag of the W round they acknowledge), which keeps the writer's W phase and
  the reader's write-back — both built from ``Write``/``WriteAck`` rounds —
  from consuming each other's acknowledgements.

Well-formedness stays per register: the composite allows at most one
outstanding operation (read *or* write) at a time, exactly the discipline the
sharded store's per-key deferral enforces for plain clients.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .automaton import ClientAutomaton, Effects, TimerPolicy
from .config import SystemConfig
from .lease import LeaseHolder
from .messages import (
    SERVER_BOUND_MESSAGES,
    BaselineQueryReply,
    BaselineStoreAck,
    LeaseGrant,
    LeaseRevoke,
    Message,
    PreWriteAck,
    ReadAck,
    TimestampQueryAck,
    WriteAck,
    WriterLeaseGrant,
    WriterLeaseRevoke,
)
from .reader import AtomicReader, LeasedReader
from .writer import AtomicWriter, LeasedWriter


class MultiWriterClient(ClientAutomaton):
    """A client that can both READ and WRITE one MWMR register."""

    #: Marks the automaton for history consumers (completions carry it too).
    mwmr = True

    # The client embeds a reader and a writer and forwards their acks and
    # lease traffic to them explicitly; baseline replies never address it.
    DISPATCH_IGNORES = SERVER_BOUND_MESSAGES + (
        BaselineQueryReply,
        BaselineStoreAck,
    )

    def __init__(
        self,
        process_id: str,
        config: SystemConfig,
        timer_delay: float = 10.0,
        count_unresponsive: bool = False,
        writer_lease_duration: Optional[float] = None,
        read_lease_duration: Optional[float] = None,
        timer_policy: TimerPolicy = TimerPolicy.DEADLINE,
        register_id: str = "",
    ) -> None:
        # Build the two roles before the base constructor runs: it assigns
        # ``timer_delay`` through the propagating property below.  A lease
        # duration upgrades the corresponding role to its leased variant.
        self.writer: AtomicWriter
        if writer_lease_duration is not None:
            self.writer = LeasedWriter(
                config,
                lease_duration=writer_lease_duration,
                timer_delay=timer_delay,
                writer_id=process_id,
                timer_policy=timer_policy,
                register_id=register_id,
            )
        else:
            self.writer = AtomicWriter(
                config,
                timer_delay=timer_delay,
                writer_id=process_id,
                timer_policy=timer_policy,
                mwmr=True,
                register_id=register_id,
            )
        self.reader: AtomicReader
        if read_lease_duration is not None:
            self.reader = LeasedReader(
                process_id,
                config,
                lease_duration=read_lease_duration,
                timer_delay=timer_delay,
                count_unresponsive=count_unresponsive,
                timer_policy=timer_policy,
                register_id=register_id,
            )
        else:
            self.reader = AtomicReader(
                process_id,
                config,
                timer_delay=timer_delay,
                count_unresponsive=count_unresponsive,
                timer_policy=timer_policy,
                register_id=register_id,
            )
        super().__init__(process_id, timer_delay=timer_delay, register_id=register_id)
        self.config = config
        self._read_lease: Optional[LeaseHolder] = (
            self.reader.lease if isinstance(self.reader, LeasedReader) else None
        )

    # -------------------------------------------------------------- timer delay
    @property
    def timer_delay(self) -> float:
        return self._timer_delay

    @timer_delay.setter
    def timer_delay(self, value: float) -> None:
        self._timer_delay = value
        self.writer.timer_delay = value
        self.reader.timer_delay = value

    # ------------------------------------------------------------------- state
    @property
    def busy(self) -> bool:
        """Whether a read or a write is outstanding on this register."""
        return self.writer.busy or self.reader.busy

    @property
    def lease_reads(self) -> int:
        """Reads the reader role served from an active read lease."""
        return int(getattr(self.reader, "lease_reads", 0))

    @property
    def lease_writes(self) -> int:
        """Writes the writer role started without a query round (leased)."""
        return int(getattr(self.writer, "lease_writes", 0))

    # -------------------------------------------------------------- invocation
    def write(self, value: Any) -> Effects:
        """Invoke ``WRITE(value)`` (query round, then the PW/W machinery)."""
        if self.busy:
            raise RuntimeError(
                f"client {self.process_id} invoked an operation while another "
                "is still outstanding (violates per-register well-formedness)"
            )
        return self.writer.write(value)

    def read(self) -> Effects:
        """Invoke ``READ()`` exactly as a plain reader would."""
        if self.busy:
            raise RuntimeError(
                f"client {self.process_id} invoked an operation while another "
                "is still outstanding (violates per-register well-formedness)"
            )
        return self.reader.read()

    def compare_and_swap(self, expected: Any, new: Any) -> Effects:
        """Invoke ``CAS(expected, new)`` — see
        :meth:`repro.core.writer.AtomicWriter.compare_and_swap`."""
        if self.busy:
            raise RuntimeError(
                f"client {self.process_id} invoked an operation while another "
                "is still outstanding (violates per-register well-formedness)"
            )
        return self.writer.compare_and_swap(expected, new)

    def read_modify_write(self, fn: Callable[[Any], Any]) -> Effects:
        """Invoke ``RMW(fn)`` — see
        :meth:`repro.core.writer.AtomicWriter.read_modify_write`."""
        if self.busy:
            raise RuntimeError(
                f"client {self.process_id} invoked an operation while another "
                "is still outstanding (violates per-register well-formedness)"
            )
        return self.writer.read_modify_write(fn)

    # ------------------------------------------------------------------- input
    def handle_message(self, message: Message) -> Effects:
        if isinstance(message, (TimestampQueryAck, PreWriteAck)):
            return self._adopt(self.writer.handle_message(message))
        if isinstance(message, (WriterLeaseGrant, WriterLeaseRevoke)):
            # Writer-lease traffic: consumed by a LeasedWriter role, ignored
            # (empty effects) by a plain MWMR writer.
            return self.writer.handle_message(message)
        if isinstance(message, ReadAck):
            return self.reader.handle_message(message)
        if isinstance(message, (LeaseGrant, LeaseRevoke)):
            # Read-lease traffic: consumed by a LeasedReader role, ignored
            # (empty effects) by a plain reader.
            return self.reader.handle_message(message)
        if isinstance(message, WriteAck):
            if message.from_writer:
                return self._adopt(self.writer.handle_message(message))
            return self.reader.handle_message(message)
        return Effects()

    def on_timer(self, timer_id: str) -> Effects:
        # Timer identifiers embed the role's op counter and phase label, so
        # each role recognises exactly its own timers and ignores the rest.
        effects = self._adopt(self.writer.on_timer(timer_id))
        return effects.merge(self.reader.on_timer(timer_id))

    def _adopt(self, effects: Effects) -> Effects:
        """In the step that completes this client's own write, CAS or RMW,
        raise its read lease to the written pair: where this client was the
        sole holder, its write revoked nothing, so the lease may still be
        held with the write's predecessor cached.  Only a live instance is
        raised — a lease a foreign write revoked meanwhile stays dead."""
        lease = self._read_lease
        if lease is not None and any(c.kind == "write" for c in effects.completions):
            lease.seed(self.writer.w, effects)
        return effects

    # -------------------------------------------------------------- inspection
    def describe(self) -> Dict[str, Any]:
        return {
            "process_id": self.process_id,
            "mwmr": True,
            "writer": self.writer.describe(),
            "reader": self.reader.describe(),
            "busy": self.busy,
        }
