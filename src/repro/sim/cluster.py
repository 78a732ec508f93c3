"""The discrete-event simulation cluster.

:class:`SimCluster` instantiates every process of a protocol suite, runs the
virtual-time event loop, injects crash and Byzantine failures, asks its
:class:`~repro.sim.topology.Topology` for the delay of every frame (the one
network model: zoned links plus partition and gray-failure windows), counts
the messages it delivers and drops, and records an operation history (for the
atomicity/regularity checkers).

Typical use::

    config = SystemConfig(t=2, b=1, fw=1, fr=0)
    cluster = SimCluster(LuckyAtomicProtocol(config))
    write = cluster.write("hello")          # blocking convenience helper
    read = cluster.read("r1")
    assert write.fast and read.value == "hello"

For concurrency experiments operations are *started* and the loop is advanced
explicitly::

    w = cluster.start_write("v2")
    cluster.run_for(0.5)                     # deliver only the first messages
    r = cluster.start_read("r1")             # READ concurrent with the WRITE
    cluster.run()                            # drain until both complete
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.automaton import Automaton, ClientAutomaton, Effects
from ..core.host import OperationHandle, ProcessHost
from ..core.messages import Batch, Message, iter_unbatched
from ..core.protocol import ProtocolSuite
from ..persist.durable import recover_server
from ..persist.snapshot import MemorySnapshot
from ..persist.wal import MemoryWAL
from ..verify.history import History
from ..wire import frame_size
from .byzantine import ByzantineStrategy, MaliciousServer, check_byzantine_servers
from .events import DeliveryEvent, EventQueue, InvocationEvent, TimerEvent
from .failures import CrashWindow, FailureSchedule
from .topology import LinkMetrics, Topology
from .trace import MessageTrace

#: Sentinel a message filter can return to drop a message entirely.
DROP = object()

#: Signature of a message filter: ``(source, destination, message, now)`` ->
#: ``None`` (use the topology), a float (explicit delay) or :data:`DROP`.
MessageFilter = Callable[[str, str, Message, float], Union[None, float, object]]


class SimulationError(RuntimeError):
    """Raised when a run exceeds its event budget (likely livelock)."""


class SimCluster:
    """Drives a full deployment of a protocol suite under virtual time."""

    def __init__(
        self,
        suite: ProtocolSuite,
        delay_model: Optional[LinkMetrics] = None,
        failures: Optional[FailureSchedule] = None,
        byzantine: Optional[Dict[str, ByzantineStrategy]] = None,
        seed: int = 0,
        message_filter: Optional[MessageFilter] = None,
        max_events_per_run: int = 500_000,
        frame_overhead: float = 0.0,
        durable: bool = False,
        compact_every: Optional[int] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        if topology is not None and delay_model is not None:
            raise ValueError(
                "pass either a topology or a delay_model, not both: "
                "delay_model=m is Topology(intra=m)"
            )
        self.suite = suite
        self.config = suite.config
        #: Every delay is drawn by the topology; ``delay_model`` gives every
        #: link the same metrics.
        self.topology = topology or Topology(intra=delay_model)
        self.failures = failures or FailureSchedule.none()
        self.byzantine = dict(byzantine or {})
        self.rng = random.Random(seed)
        self.message_filter = message_filter
        self.max_events_per_run = max_events_per_run
        #: Per-frame transmission cost at the sender.  Frames leaving the same
        #: process serialize on its outgoing line, each occupying it for
        #: ``frame_overhead`` time units before the network delay starts — the
        #: per-message overhead that batching amortises (a batch is one frame).
        #: The default of 0 reproduces the classical charge-per-message model.
        self.frame_overhead = frame_overhead
        #: Durability: with ``durable=True`` every server is wrapped in a
        #: :class:`~repro.persist.durable.DurableServer` logging its state to
        #: an in-memory WAL, which is what lets a crashed server *recover*
        #: (see :meth:`recover_server`) instead of counting against ``t``
        #: forever.  ``compact_every`` additionally snapshots + truncates the
        #: log once it holds that many records.
        self.durable = durable
        self.compact_every = compact_every
        self.wals: Dict[str, MemoryWAL] = {}
        self.snapshot_stores: Dict[str, MemorySnapshot] = {}

        self.now: float = 0.0
        self.queue = EventQueue()
        self.trace = MessageTrace()
        #: Diagnostics: events dispatched, frames put on the wire, protocol
        #: messages carried by them (frames < messages when batching is on)
        #: and the encoded wire bytes of those frames (:func:`~repro.wire.frame_size`).
        #: ``events_processed`` counts *dispatched* events only: a timer an
        #: automaton cancelled before expiry is discarded by the queue (see
        #: :attr:`timers_cancelled`), never popped as an event.
        self.events_processed: int = 0
        self.frames_sent: int = 0
        self.messages_sent: int = 0
        self.bytes_sent: int = 0
        # Batching layer: the sources with a flush event queued (the buffered
        # sends sit in their hosts' outboxes), plus the time each source's
        # outgoing line is busy until.
        self._flush_scheduled: set = set()
        self._line_busy_until: Dict[str, float] = {}
        #: Every operation invoked so far, in invocation order.
        self.operations: List[OperationHandle] = []

        #: The automaton of every process, and the host stepping it (fence,
        #: frame step, outbox, operation slots — shared with asyncio).
        self.processes: Dict[str, Automaton] = {}
        self.hosts: Dict[str, ProcessHost] = {}
        self._build_processes()

        # Round-1 timers are per-process: each client's timer covers one
        # round trip over *its own* links (plus margin), so a client in a far
        # zone arms a longer timer than a quorum-local one.
        servers = self.config.server_ids()
        for process_id, process in self.processes.items():
            if isinstance(process, ClientAutomaton):
                process.timer_delay = self.topology.suggested_timer_for(
                    process_id, servers, margin=0.5
                )

        # The suite's Byzantine servers (a sharded store's) fail like the
        # cluster's own: both count against b, and against t below.
        byzantine_ids = set(self.byzantine) | set(getattr(suite, "byzantine", {}))
        check_byzantine_servers(byzantine_ids, self.config)
        # With recovery in the schedule, the model bound applies to servers
        # down *simultaneously*: a durable server that recovered from its WAL
        # no longer counts against t, so the total number of distinct crashes
        # over the run may legitimately exceed it.
        peak_faulty = self.failures.max_simultaneous_faulty(
            self.config.server_ids(), always_faulty=byzantine_ids
        )
        if peak_faulty > self.config.t:
            raise ValueError(
                f"{peak_faulty} simultaneously faulty servers exceed the model "
                f"bound t={self.config.t}"
            )
        self._queue_recoveries()

    # ----------------------------------------------------------------- build
    def _build_processes(self) -> None:
        for server_id in self.config.server_ids():
            server = self._build_server(server_id)
            if self.durable:
                # The first incarnation: recovery from an empty log and store.
                server = recover_server(
                    server,
                    self.wals.setdefault(server_id, MemoryWAL()),
                    snapshot_store=self.snapshot_stores.setdefault(server_id, MemorySnapshot()),
                    incarnation=0,
                    compact_every=self.compact_every,
                )
            self._host(server)
        self._host(self.suite.create_writer())
        for reader_id in self.config.reader_ids():
            self._host(self.suite.create_reader(reader_id))

    def _host(self, automaton: Automaton) -> None:
        """Install *automaton* under a fresh host (whose fence table is empty)."""
        self.processes[automaton.process_id] = automaton
        self.hosts[automaton.process_id] = ProcessHost(automaton)

    def _build_server(self, server_id: str) -> Automaton:
        """A fresh (initial-state) server automaton, Byzantine-wrapped if set."""
        server = self.suite.create_server(server_id)
        strategy = self.byzantine.get(server_id)
        if strategy is not None:
            server = MaliciousServer(server, strategy)  # type: ignore[arg-type]
        return server

    def _queue_recoveries(self) -> None:
        recoveries = self.failures.recovery_events()
        if not recoveries:
            return
        if not self.durable:
            raise ValueError(
                "the failure schedule recovers servers but the cluster is not "
                "durable; build it with durable=True so crashed servers have a "
                "WAL to recover from"
            )
        server_set = set(self.config.server_ids())
        for process_id, window in recoveries:
            if process_id not in server_set:
                raise ValueError(
                    f"only servers can recover from a WAL; {process_id!r} is a client"
                )
            self.queue.push(
                window.recover_at,
                InvocationEvent(
                    label=f"recover:{process_id}",
                    action=lambda p=process_id, w=window: self._scheduled_recovery(p, w),
                ),
            )

    def _scheduled_recovery(self, process_id: str, window: CrashWindow) -> None:
        """Fire a schedule-driven recovery unless its window was closed early.

        A manual :meth:`recover_server` call rewrites the crash window to end
        at the manual recovery time; the originally queued event is then stale
        and must not fire — it would drop the *live* incarnation's WAL tail
        (records whose acks were already quorum-counted) and bump the
        incarnation a second time.
        """
        if window in self.failures.windows.get(process_id, ()):
            self.recover_server(process_id, lose_tail=window.lose_tail)

    # ------------------------------------------------------------ inspection
    @property
    def timers_cancelled(self) -> int:
        """Timers disarmed before expiry (never dispatched)."""
        return self.queue.timers_cancelled

    @property
    def writer(self) -> ClientAutomaton:
        return self.processes[self.config.writer_id]  # type: ignore[return-value]

    def reader(self, reader_id: str) -> ClientAutomaton:
        return self.processes[reader_id]  # type: ignore[return-value]

    def server(self, server_id: str) -> Automaton:
        return self.processes[server_id]

    # -------------------------------------------------------------- failures
    def crash(self, process_id: str, at: Optional[float] = None) -> None:
        """Crash *process_id* at time *at* (default: immediately)."""
        self.failures.crash(process_id, self.now if at is None else at)

    def is_crashed(self, process_id: str) -> bool:
        return self.failures.is_crashed(process_id, self.now)

    def incarnation(self, server_id: str) -> int:
        """The current incarnation (recovery count) of *server_id*.

        Unknown process ids raise :class:`KeyError` — a typo must not be
        indistinguishable from a live server that simply never recovered.
        The ``0`` default is reserved for *existing* processes without an
        incarnation counter (live non-durable servers, clients).
        """
        try:
            process = self.processes[server_id]
        except KeyError:
            raise KeyError(
                f"unknown process {server_id!r}; known processes: "
                f"{sorted(self.processes)}"
            ) from None
        return getattr(process, "incarnation", 0)

    def recover_server(self, server_id: str, lose_tail: int = 0) -> None:
        """Rebuild *server_id* from its WAL (snapshot + suffix replay), now.

        The fresh automaton replaces the crashed one under a bumped
        incarnation and a fresh host: what the dead incarnation had buffered
        is lost with it, and a receiver that has heard from the new
        incarnation rejects the old one's in-flight acknowledgements — whose
        state a lost tail may not cover — instead of counting them into
        pending quorums.
        """
        if not self.durable:
            raise ValueError(
                "recover_server requires a durable cluster (durable=True)"
            )
        self.failures.mark_recovered(server_id, self.now)
        wal = self.wals[server_id]
        if lose_tail:
            wal.drop_tail(lose_tail)
        for destination, frame in self.hosts[server_id].drain():
            self._drop(server_id, destination, frame, "crashed")
        self._host(
            recover_server(
                self._build_server(server_id),
                wal,
                snapshot_store=self.snapshot_stores[server_id],
                incarnation=self.incarnation(server_id) + 1,
                compact_every=self.compact_every,
            )
        )

    # ------------------------------------------------------------ invocation
    def start(
        self, client_id: str, kind: str, *args: Any, register_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke operation *kind* on *client_id* now; the handle completes as
        the loop runs.

        The one invocation path of the simulator.  ``register_id=None`` is the
        paper's single register; a key addresses one register of a sharded
        client (a :class:`~repro.store.sharding.ShardedProtocol` deployment).
        A ``cas`` or ``rmw`` handle resolves its record at completion: a
        successful one is a write, a failed CAS a read of the observed value.
        """
        host = self.hosts[client_id]
        sharded = getattr(host.automaton, "sharded", False)
        if register_id is not None and not sharded:
            raise TypeError(
                f"client {client_id!r} is not sharded; build the cluster with a "
                "repro.store.ShardedProtocol suite to address registers by key"
            )
        if register_id is None and sharded:
            raise TypeError(
                f"client {client_id!r} is sharded; name the register to address "
                "with register_id="
            )
        # A rejected invocation raises here and leaves no handle behind.
        handle, effects = host.invoke(kind, register_id, args, self.now)
        self.operations.append(handle)
        self.inject(client_id, effects)
        return handle

    def run_until_done(self, handle: OperationHandle) -> OperationHandle:
        """Run the loop until *handle* completes; returns it."""
        self.run(until=lambda: handle.done)
        return handle

    def start_write(self, value: Any) -> OperationHandle:
        """Invoke a WRITE now; returns a handle that completes as the loop runs."""
        return self.start(self.config.writer_id, "write", value)

    def start_read(self, reader_id: Optional[str] = None) -> OperationHandle:
        """Invoke a READ now on *reader_id* (default: the first reader)."""
        return self.start(reader_id or self.config.reader_ids()[0], "read")

    def write(self, value: Any) -> OperationHandle:
        """Invoke a WRITE and run the loop until it completes."""
        return self.run_until_done(self.start_write(value))

    def read(self, reader_id: Optional[str] = None) -> OperationHandle:
        """Invoke a READ and run the loop until it completes."""
        return self.run_until_done(self.start_read(reader_id))

    # -------------------------------------------------------------- run loop
    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_time: float = math.inf,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events until *until* holds, the queue drains, or limits hit."""
        budget = max_events if max_events is not None else self.max_events_per_run
        processed = 0
        while True:
            if until is not None and until():
                return
            item = self.queue.pop_due(max_time)
            if item is None:
                # Drained, or the next event lies beyond the horizon.
                if self.queue.peek_time() is None and until is not None and not until():
                    raise SimulationError(
                        "event queue drained before the run condition was met "
                        "(operation cannot complete under this failure/delay setup)"
                    )
                return
            event_time, event = item
            self.now = max(self.now, event_time)
            self._dispatch(event)
            processed += 1
            self.events_processed += 1
            if processed > budget:
                raise SimulationError(
                    f"exceeded event budget of {budget}; possible livelock"
                )

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance virtual time by *duration*, processing every due event.

        Events scheduled after the horizon stay queued; the clock is moved to
        the horizon so that operations invoked afterwards genuinely start later.
        """
        horizon = self.now + duration
        self.run(max_time=horizon, max_events=max_events)
        self.now = max(self.now, horizon)

    def run_until_quiescent(self) -> None:
        """Drain every pending event (all operations completed, timers fired)."""
        self.run()

    # -------------------------------------------------------------- plumbing
    def _dispatch(self, event: Any) -> None:
        if isinstance(event, DeliveryEvent):
            self._deliver(event)
        elif isinstance(event, TimerEvent):
            self._fire_timer(event)
        elif isinstance(event, InvocationEvent):
            event.action()
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown event type: {event!r}")

    def _deliver(self, event: DeliveryEvent) -> None:
        # A Batch envelope is one delivery event (the topology charged one
        # network traversal for the whole frame) but its payload messages are
        # counted and stepped individually, so protocol logic and per-kind
        # message statistics never see the envelope.  The host has closed the
        # frame's WAL append before it returns; the heap breaks ties by push
        # order, so each message's effects are applied whole, in frame order.
        source, destination = event.source, event.destination
        host = self.hosts.get(destination)
        if host is None or self.failures.is_crashed(destination, self.now):
            reason = "unknown" if host is None else "crashed"
            self._drop(source, destination, event.message, reason)
            return
        for message, effects in host.deliver(source, event.message):
            if effects is None:
                reason = "impersonation" if message.sender != source else "stale-epoch"
                self.trace.record_drop(source, destination, reason)
            else:
                self.trace.record_delivery(source, destination, message.kind)
                self.inject(destination, effects)

    def _drop(self, source: str, destination: str, frame: Message, reason: str) -> None:
        """Count every protocol message carried by *frame* as dropped."""
        self.trace.record_drop(source, destination, reason, len(iter_unbatched(frame)))

    def _fire_timer(self, event: TimerEvent) -> None:
        host = self.hosts.get(event.process_id)
        if host is None or self.failures.is_crashed(event.process_id, self.now):
            return
        self.inject(event.process_id, host.timer(event.timer_id))

    def inject(self, source: str, effects: Effects) -> None:
        """Apply *effects* as emitted by process *source* now.

        How every hosted process's effects are applied — and the door for
        acting as a process the cluster does *not* host (a malicious reader
        forging write-backs, say): its sends pass the message filter and the
        line model like anyone's, and replies to it drop as ``unknown``.
        """
        if self.failures.is_crashed(source, self.now):
            return
        host = self.hosts.get(source)
        outbox = host if host is not None and host.batching else None
        for send in effects.sends:
            self._send(source, send.destination, send.message, outbox)
        if effects.timers:
            # Clock skew scales the *duration* a process arms, not virtual
            # time itself: a fast local clock (scale < 1) fires round-1
            # timers before the synchrony bound is up, a slow one (> 1)
            # holds leases past their nominal expiry at the granters.
            scale = self.topology.timer_scale(source)
            for timer in effects.timers:
                self.queue.push_timer(self.now + timer.delay * scale, source, timer.timer_id)
        for timer_id in effects.cancels:
            # A cancelled timer's heap entry is discarded when it surfaces,
            # never dispatched, so it does not inflate ``events_processed``.
            self.queue.cancel_timer(source, timer_id)
        if host is not None:
            for completion in effects.completions:
                host.complete(completion, self.now)

    # ---------------------------------------------------------------- sending
    def _send(
        self, source: str, destination: str, message: Message, outbox: Optional[ProcessHost]
    ) -> None:
        """Emit one protocol message: into *outbox* for the source's next
        flush when it batches, else straight onto the wire.

        The message filter runs now, per protocol message (never on the
        envelope): a dropped message simply leaves the batch, and an explicit
        per-message delay opts the message out of batching and the line model
        entirely, since the filter demands full control over its arrival time.
        """
        if self.message_filter is not None:
            verdict = self.message_filter(source, destination, message, self.now)
            if verdict is DROP:
                self.trace.record_drop(source, destination, "filtered")
                return
            if verdict is not None:
                self._push_explicit(source, destination, message, float(verdict))
                return
        if outbox is None:
            self._transmit(source, destination, message)
            return
        outbox.buffer(destination, message)
        if source not in self._flush_scheduled:
            self._flush_scheduled.add(source)
            # Flush when the outgoing line frees up (immediately when idle):
            # everything buffered while a previous frame occupied the line
            # coalesces into the next frame — batching under backpressure.
            flush_at = max(self.now, self._line_busy_until.get(source, 0.0))
            self.queue.push(
                flush_at,
                InvocationEvent(
                    label=f"flush:{source}", action=lambda s=source: self._flush(s)
                ),
            )

    def _flush(self, source: str) -> None:
        """Emit one frame per destination with buffered messages of *source*."""
        self._flush_scheduled.discard(source)
        crashed = self.failures.is_crashed(source, self.now)
        for destination, frame in self.hosts[source].drain():
            if crashed:
                self._drop(source, destination, frame, "crashed")
            else:
                self._transmit(source, destination, frame)

    def _count_frame(self, source: str, destination: str, message: Message) -> int:
        """Count one frame onto the wire counters; returns its encoded size —
        what a real transport would write.  A Batch is one frame but
        ``len(batch)`` messages, whichever send path it took."""
        size = frame_size(source, destination, message)
        self.frames_sent += 1
        self.messages_sent += len(message) if isinstance(message, Batch) else 1
        self.bytes_sent += size
        return size

    def _push_explicit(
        self, source: str, destination: str, message: Message, delay: float
    ) -> None:
        """Deliver with a filter-chosen delay: the filter retains full control
        of the arrival time, bypassing batching and the frame-overhead
        serialization (the message still counts as its own frame)."""
        self._count_frame(source, destination, message)
        self._push_delivery(self.now + delay, source, destination, message)

    def _transmit(self, source: str, destination: str, message: Message) -> None:
        """Put one frame on the wire, serializing on the source's line.

        The line is occupied for ``frame_overhead`` time units whatever the
        frame's size; ``size`` (the encoded length of the frame)
        is counted in ``bytes_sent`` and handed to the topology's delay.
        """
        size = self._count_frame(source, destination, message)
        departure = self.now
        if self.frame_overhead > 0.0:
            departure = max(self.now, self._line_busy_until.get(source, 0.0))
            departure += self.frame_overhead
            self._line_busy_until[source] = departure
        delay = self.topology.delay(source, destination, departure, self.rng, size)
        if delay is None:
            # An active partition severs the link: the frame left the sender
            # (it is counted as sent) but dies in the network.  The sender's
            # timer-driven termination path covers the missing replies, just
            # as it covers a crashed responder.
            self._drop(source, destination, message, "partitioned")
            return
        self._push_delivery(departure + float(delay), source, destination, message)

    def _push_delivery(self, at: float, source: str, destination: str, message: Message) -> None:
        self.queue.push(at, DeliveryEvent(source=source, destination=destination, message=message))

    # --------------------------------------------------------------- history
    def history(self) -> History:
        """The operation history of everything invoked so far."""
        return History([handle.to_record() for handle in self.operations])

    def completed_operations(self) -> List[OperationHandle]:
        return [handle for handle in self.operations if handle.done]
