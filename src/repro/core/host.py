"""The one process host both runtimes drive.

Everything that happens *around* an automaton and does not depend on how time
passes lives here once: the sender and incarnation fences, the frame step
(unbatch, fence, one WAL append around a multi-message frame, one
``handle_message`` per admitted message), the per-destination outbox, the
operation slots of a client, and the one builder of history records.  The
simulator supplies virtual time, the event heap, the topology and the failure
schedule; asyncio supplies loop timers, a flusher task and a transport.
Nothing here reads a clock (``now`` is an argument), awaits, or knows either
runtime.

This module imports :class:`~repro.verify.history.OperationRecord` — the one
upward edge of ``core``.  The record is the vocabulary the checkers and the
hosts share; building it anywhere else put a second builder back in each
runtime, which is the drift this module exists to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..verify.history import OperationRecord
from .automaton import Automaton, Effects, OperationComplete, invoke_operation
from .messages import Message, iter_unbatched, make_envelope


@dataclass(slots=True)
class OperationHandle:
    """A pending or completed client operation, on either runtime.

    ``register_id`` is ``None`` for single-register deployments; sharded-store
    operations carry the key they target.  ``scheduled_at`` records when a
    workload *wanted* to invoke the operation, which can be earlier than
    ``invoked_at`` when the invocation was deferred behind an outstanding
    operation of the same client (the difference is the queueing delay).
    Times are the runtime's: virtual, or seconds since the cluster's origin.
    """

    client_id: str
    kind: str
    requested_value: Any = None
    invoked_at: float = 0.0
    completed_at: Optional[float] = None
    result: Optional[OperationComplete] = None
    register_id: Optional[str] = None
    scheduled_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.result is not None

    def _completion(self) -> OperationComplete:
        if self.result is None:
            raise RuntimeError("operation has not completed")
        return self.result

    @property
    def value(self) -> Any:
        return self._completion().value

    @property
    def rounds(self) -> int:
        return self._completion().rounds

    @property
    def fast(self) -> bool:
        return self._completion().fast

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise RuntimeError("operation has not completed")
        return self.completed_at - self.invoked_at

    @property
    def queueing_delay(self) -> float:
        """Time spent deferred behind an earlier operation of the same client."""
        if self.scheduled_at is None:
            return 0.0
        return max(0.0, self.invoked_at - self.scheduled_at)

    def to_record(self) -> OperationRecord:
        """Convert to the checker's operation record (the one builder)."""
        result = self.result
        metadata: Dict[str, Any] = {} if result is None else dict(result.metadata)
        if self.register_id is not None:
            metadata["register_id"] = self.register_id
        if self.scheduled_at is not None:
            metadata["scheduled_at"] = self.scheduled_at
            metadata["queueing_delay"] = self.queueing_delay
        if result is None:
            return OperationRecord(
                client_id=self.client_id,
                kind=self.kind,
                value=self.requested_value,
                invoked_at=self.invoked_at,
                completed_at=None,
                metadata=metadata,
            )
        # A conditional op resolves its record kind at completion: a
        # successful CAS/RMW is a write of the new value, a failed CAS is a
        # read of the observed value.  A read returns its value; a write
        # records the value its caller asked for.
        conditional = self.kind in ("cas", "rmw")
        observed = conditional or self.kind == "read"
        return OperationRecord(
            client_id=self.client_id,
            kind=result.kind if conditional else self.kind,
            value=result.value if observed else self.requested_value,
            invoked_at=self.invoked_at,
            completed_at=self.completed_at,
            rounds=result.rounds,
            fast=result.fast,
            metadata=metadata,
        )


class ProcessHost:
    """Hosts one automaton: fence, frame step, outbox, operation slots."""

    def __init__(self, automaton: Automaton) -> None:
        self.automaton = automaton
        self.process_id = automaton.process_id
        #: Whether the runtime buffers sends and flushes one frame per
        #: destination (the sharded store's processes opt in).
        self.batching = bool(getattr(automaton, "batching", False))
        self._logs = hasattr(automaton, "append_batch")
        # The fence table: highest Message.epoch seen per sender.  Volatile —
        # a recovered process starts with a fresh host.
        self._epochs: Dict[str, int] = {}
        self._outbox: Dict[str, List[Message]] = {}
        #: Open operations by the register they address, one per key;
        #: ``None`` is the paper's single register.
        self.open: Dict[Optional[str], OperationHandle] = {}

    # ------------------------------------------------------------------ fence
    def admit(self, message: Message) -> bool:
        """Monotone incarnation fencing against recovered senders.

        Once a message from incarnation ``n`` of a peer has been seen, any
        straggler from an earlier incarnation is rejected: the pre-crash
        incarnation may have acknowledged state its torn WAL tail lost, so a
        pending operation must not count it into a quorum.  Dropping is
        indistinguishable from a message lost to the crash — the sender's new
        incarnation re-acknowledges under its own epoch.  A receiver knows
        only what it has seen: a straggler arriving *before* anything from the
        new incarnation is admitted — under fsync-before-ack, what it
        acknowledges is true.
        """
        last = self._epochs.get(message.sender, 0)
        if message.epoch < last:
            return False
        if message.epoch > last:
            self._epochs[message.sender] = message.epoch
        return True

    # ------------------------------------------------------------------ steps
    def deliver(self, source: str, frame: Message) -> List[Tuple[Message, Optional[Effects]]]:
        """Step the automaton through one inbound frame from *source*.

        *source* is the process the frame came from, as the channel knows it
        (the paper's authenticated point-to-point links): a carried message
        whose ``sender`` is another process is an impersonation and is never
        stepped, so a Byzantine process casts no vote but its own.  Returns
        ``(message, effects)`` per carried message, in frame order, with
        ``None`` for a message not stepped (impersonating or fenced).  A
        multi-message frame into a durable server is one WAL append, and the
        scope has closed — the log is fsync'd — before any effect is
        returned: the append-before-reply ordering is this method's return.
        """
        messages = iter_unbatched(frame)
        if len(messages) > 1 and self._logs:
            with self.automaton.append_batch():  # type: ignore[attr-defined]
                return self._step(source, messages)
        return self._step(source, messages)

    def _step(
        self, source: str, messages: Sequence[Message]
    ) -> List[Tuple[Message, Optional[Effects]]]:
        step, admit = self.automaton.handle_message, self.admit
        return [
            (message, step(message) if message.sender == source and admit(message) else None)
            for message in messages
        ]

    def timer(self, timer_id: str) -> Effects:
        """Step the automaton through one timer expiry."""
        return self.automaton.on_timer(timer_id)

    # ----------------------------------------------------------------- outbox
    def buffer(self, destination: str, message: Message) -> None:
        """Queue *message* for the next frame towards *destination*."""
        self._outbox.setdefault(destination, []).append(message)

    def drain(self) -> List[Tuple[str, Message]]:
        """Empty the outbox into frames: with batching, one per destination
        (a lone message travels unwrapped, several as one ``Batch``); without,
        one per message, in the order they were buffered per destination."""
        pending, self._outbox = self._outbox, {}
        if not self.batching:
            return [
                (destination, message)
                for destination, messages in pending.items()
                for message in messages
            ]
        return [
            (destination, make_envelope(self.process_id, messages))
            for destination, messages in pending.items()
        ]

    # ------------------------------------------------------------- operations
    def invoke(
        self, kind: str, key: Optional[str], args: Sequence[Any], now: float
    ) -> Tuple[OperationHandle, Effects]:
        """Invoke operation *kind* on the hosted client and open its slot.

        The automaton is invoked first: if it rejects the call (an unknown
        register, a role the client lacks, well-formedness) no slot must be
        left behind, or it would shadow the genuinely open one.  The slot is
        claimed before the caller applies the returned effects, so an
        operation completing inside them (a zero-round leased read) finds it.
        """
        effects, requested_value = invoke_operation(self.automaton, kind, key, args)
        handle = OperationHandle(self.process_id, kind, requested_value, now, register_id=key)
        self.open[key] = handle
        return handle, effects

    def complete(self, completion: OperationComplete, now: float) -> Optional[OperationHandle]:
        """Close the slot *completion* answers; the completed handle, or
        ``None`` when no operation is open on that register."""
        handle = self.open.pop(completion.register_id or None, None)
        if handle is not None:
            handle.result = completion
            handle.completed_at = now
        return handle
