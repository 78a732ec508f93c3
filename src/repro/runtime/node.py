"""Asyncio nodes hosting the sans-I/O automata.

A node owns the :class:`~repro.core.host.ProcessHost` of one automaton — the
fence, the frame step, the outbox and the operation slots are the host's,
shared with the simulator.  A frame is stepped where it lands: the
transport's call of the node's handler steps it, and a timer's loop callback
steps the timer.  Outgoing effects are translated into the outbox,
``loop.call_later`` timers and, for clients, resolution of the future
awaiting the open operation.

A node runs exactly one task, made by :meth:`AutomatonNode.start`: the
flusher, which turns the outbox into frames.  Stepping inline keeps each step
atomic (the model's semantics) because a step never sends: applying its
effects awaits nothing, it only fills the outbox, arms loop timers and
resolves futures.  So no step ever runs inside another, and a receiver that
raises crash-stops itself, never the sender whose ``send`` delivered to it.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from operator import attrgetter
from typing import Any, Dict, List, Optional

from ..core.automaton import Automaton, ClientAutomaton, Effects, OperationComplete
from ..core.host import OperationHandle, ProcessHost
from ..core.messages import Message
from ..persist.durable import DurableServer, make_durable
from .transport import Transport


class NodeFailedError(RuntimeError):
    """A client node's automaton raised, a frame it emitted could not be
    sent, or it stopped with the operation open (``__cause__``): the node is
    crash-stopped."""

    def __init__(self, process_id: str, cause: Exception) -> None:
        super().__init__(f"client {process_id} is crash-stopped: {cause!r}")
        self.__cause__ = cause


class AutomatonNode:
    """Hosts one automaton (server or client) on an asyncio event loop.

    The transport hands a frame to the node by awaiting its handler, which
    steps it there and then (``ProcessHost.deliver``, then
    :meth:`apply_effects`) and never suspends.  One exception: a node hosting
    a :class:`~repro.persist.durable.DurableServer` steps each frame on a
    loop turn of its own (``loop.call_soon``), because its step blocks on an
    fsync that must not run inside the sender's ``send``.  A node steps
    between :meth:`start` and :meth:`stop` only; a frame or a timer reaching
    it outside that window is dropped, as if sent to a crashed process.

    Outgoing sends are buffered in the host's per-destination outbox and
    the node's one flusher is woken (an :class:`asyncio.Event`).  It runs at
    the next loop iteration and sends what the host drains: when the
    automaton opts into batching (``automaton.batching`` is true — the
    sharded store's processes do), everything the node emitted in the
    meantime towards the same destination leaves as a single
    :class:`~repro.core.messages.Batch` — one frame on the transport —
    and otherwise each message is its own frame.  The flusher sends its
    frames one after another, so frames towards one destination leave in the
    order they were buffered.  Inbound batches are unwrapped by the host, so
    the automaton only ever sees protocol messages.
    """

    def __init__(
        self,
        automaton: Automaton,
        transport: Transport,
        time_scale: float = 0.001,
        crashed: bool = False,
        durable: bool = False,
        wal_dir: Optional[str] = None,
        compact_every: int = 512,
    ) -> None:
        if durable:
            if wal_dir is None:
                raise ValueError("a durable node needs a wal_dir for its WAL files")
            automaton = make_durable(automaton, wal_dir, compact_every=compact_every)
        self.host = ProcessHost(automaton)
        self.automaton = automaton
        self.process_id = automaton.process_id
        self.transport = transport
        #: Conversion factor from automaton time units to wall-clock seconds
        #: (client timer delays are expressed in time units).
        self.time_scale = time_scale
        self.crashed = crashed
        #: What the automaton raised out of a step (or the flusher out of a
        #: send), if it ever did: the node is then crash-stopped (a crash ``t``
        #: covers), its state being unknown.
        self.failure: Optional[Exception] = None
        self._loop: asyncio.AbstractEventLoop  # the running loop, bound by start()
        # Whether frames and timers are stepped: from start() to stop().
        self._running = False
        self._durable = isinstance(automaton, DurableServer)
        # Set when a send is buffered; the flusher clears it and drains.
        self._flush_wanted = asyncio.Event()
        self._flusher: Optional[asyncio.Task] = None
        # The pending loop timer of each timer id: arming an id that is
        # pending replaces its armament, and a fired or cancelled handle
        # leaves at once, so a node holds only the timers still pending.
        self._timer_handles: Dict[str, asyncio.TimerHandle] = {}
        #: Diagnostics: timers disarmed by an automaton before they fired.
        self.timers_cancelled: int = 0
        transport.register(self.process_id, self._on_transport_message)

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._running = True
        self._flusher = asyncio.create_task(self._flush_outbox(), name=f"flusher-{self.process_id}")

    async def stop(self) -> None:
        self._running = False
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        flusher, self._flusher = self._flusher, None
        if flusher is not None:
            flusher.cancel()
            await asyncio.gather(flusher, return_exceptions=True)
        self.host.drain()
        if isinstance(self.automaton, DurableServer):
            self.automaton.wal.close()

    def crash(self) -> None:
        """Stop reacting to anything (crash failure)."""
        self.crashed = True

    # ----------------------------------------------------------------- inputs
    async def _on_transport_message(self, source: str, message: Message) -> None:
        # *source* is who the channel says sent the frame: ``send``'s source in
        # memory, the connection's bound source on TCP.
        if self._durable and self._running:
            # A durable step blocks on fsync: it takes a loop turn of its own
            # rather than run inside the sender's ``send``.
            self._loop.call_soon(self._step_frame, source, message)
        else:
            self._step_frame(source, message)

    def _step_frame(self, source: str, frame: Message) -> None:
        # The host steps each message of a frame as its own atomic step and
        # returns once the frame's WAL append is durable.  Applying effects
        # never awaits (sends only fill the outbox), so every reply the frame
        # provokes lands in the same flush — the batch boundary survives the
        # hop.
        if self.crashed or not self._running:
            return
        try:
            for _, effects in self.host.deliver(source, frame):
                if effects is not None:  # None: the host did not step it
                    self.apply_effects(effects)
        except Exception as exc:
            self._fail(exc)

    def _step_timer(self, timer_id: str) -> None:
        if self.crashed or not self._running:
            return
        try:
            self.apply_effects(self.host.timer(timer_id))
        except Exception as exc:
            self._fail(exc)

    def _fail(self, cause: Exception) -> None:
        """The automaton raised, or a frame it emitted could not be sent:
        crash-stop the node and keep the cause."""
        self.crashed = True
        self.failure = cause

    # ---------------------------------------------------------------- effects
    def apply_effects(self, effects: Effects) -> None:
        """Apply one step's effects: sends into the outbox (the flusher sends
        them), timers onto the loop, completions to the open operations."""
        if self.crashed:
            return
        if effects.sends:
            buffer = self.host.buffer
            for send in effects.sends:
                buffer(send.destination, send.message)
            self._flush_wanted.set()
        for timer in effects.timers:
            self._arm_timer(timer.timer_id, timer.delay * self.time_scale)
        for timer_id in effects.cancels:
            self._cancel_timer(timer_id)
        for completion in effects.completions:
            self._handle_completion(completion)

    def _arm_timer(self, timer_id: str, delay: float) -> None:
        replaced = self._timer_handles.get(timer_id)
        if replaced is not None:
            replaced.cancel()
        # A bound method and the id, not a closure over its own handle: that
        # closure made every fired timer a reference cycle for the GC.
        self._timer_handles[timer_id] = self._loop.call_later(delay, self._fire_timer, timer_id)

    def _fire_timer(self, timer_id: str) -> None:
        # Only the id's pending handle can fire: a replaced one was cancelled.
        del self._timer_handles[timer_id]
        self._step_timer(timer_id)

    def _cancel_timer(self, timer_id: str) -> None:
        handle = self._timer_handles.pop(timer_id, None)
        if handle is not None:
            handle.cancel()
            self.timers_cancelled += 1

    # ----------------------------------------------------------------- outbox
    async def _flush_outbox(self) -> None:
        """The node's one flusher: each wake-up sends what the host drains
        (with batching, one frame per destination).  Sends buffered while a
        send waits (a paused TCP link) wait for the next pass, so
        per-destination order holds.  A crashed node's outbox is emptied and
        nothing is sent."""
        wanted = self._flush_wanted
        while True:
            await wanted.wait()
            wanted.clear()
            frames = self.host.drain()
            if self.crashed:
                continue
            try:
                for destination, frame in frames:
                    await self.transport.send(self.process_id, destination, frame)
            except Exception as exc:
                # A frame that cannot be sent (its message does not encode)
                # leaves the node unable to keep its protocol: crash-stop it,
                # as when the automaton raises, rather than go silently mute.
                self._fail(exc)

    def _handle_completion(self, completion: OperationComplete) -> None:
        """Server automata never complete operations; clients override this."""


class ClientNode(AutomatonNode):
    """A node hosting a client automaton; exposes awaitable operations.

    Operations are keyed by the register they address, one outstanding per
    key; ``None`` is the paper's single register, the only key of a plain
    client.  The automaton still enforces well-formedness per register.

    A completed operation is kept as its completion plus two stamps in a
    flat array, not as an :class:`~repro.core.host.OperationHandle` with
    boxed floats: the run keeps every operation for its history, so what one
    costs is what the store's memory grows by per operation.
    :attr:`operations` rebuilds the handles on demand.
    """

    def __init__(
        self,
        automaton: ClientAutomaton,
        transport: Transport,
        time_scale: float = 0.001,
        start_time: Optional[float] = None,
    ) -> None:
        super().__init__(automaton, transport, time_scale=time_scale)
        self._futures: Dict[Optional[str], asyncio.Future] = {}
        # Completed operations in completion order, four flat entries each:
        # key, kind, requested value, completion; ``_stamps`` holds their
        # invocation and completion times, two each.  Open operations are
        # the host's slots.
        self._done: List[Any] = []
        self._stamps = array("d")
        #: Origin (``time.monotonic()``) the operations' timestamps are
        #: relative to.  A cluster hands all its client nodes the same one:
        #: histories merged across clients are only checkable on one clock.
        self.start_time = time.monotonic() if start_time is None else start_time

    # ------------------------------------------------------------- operations
    async def invoke(self, kind: str, key: Optional[str], *args: Any) -> OperationComplete:
        """Invoke operation *kind* on register *key* and await its completion.

        The one invocation path of the asyncio runtime, the mirror of
        :meth:`~repro.sim.cluster.SimCluster.start`: *kind* is ``"write"``,
        ``"read"``, ``"cas"`` or ``"rmw"``, *key* is ``None`` for the paper's
        single register, and a conditional's completion ``kind`` says whether
        it wrote or only read.
        """
        if self.failure is not None:
            raise NodeFailedError(self.process_id, self.failure)
        busy = self.host.open.get(key)
        if busy is not None:
            where = "" if key is None else f" on register {key!r}"
            raise RuntimeError(f"client {self.process_id} already has a pending {busy.kind}{where}")
        # A rejected invocation raises here, before anything is recorded.
        _, effects = self.host.invoke(kind, key, args, time.monotonic() - self.start_time)
        future = self._futures[key] = asyncio.get_running_loop().create_future()
        self.apply_effects(effects)
        return await future

    def _handle_completion(self, completion: OperationComplete) -> None:
        # The operation is history and its slot is free whether or not anyone
        # still awaits it (a wait_for timeout leaves a cancelled future behind).
        now = time.monotonic() - self.start_time
        handle = self.host.complete(completion, now)
        if handle is None:
            return
        # Every completion is a fresh object its automaton keeps no reference
        # to, so stamping it aliases nothing.
        completion.latency_s = now - handle.invoked_at
        self._done += (handle.register_id, handle.kind, handle.requested_value, completion)
        self._stamps.extend((handle.invoked_at, now))
        future = self._futures.pop(completion.register_id or None, None)
        if future is not None and not future.done():
            future.set_result(completion)

    @property
    def operations(self) -> List[OperationHandle]:
        """Every operation invoked on this node, open ones included, in
        invocation order (built on each access)."""
        done, stamps = self._done, self._stamps
        handles = [
            OperationHandle(
                self.process_id,
                done[index + 1],
                done[index + 2],
                stamps[index // 2],
                stamps[index // 2 + 1],
                done[index + 3],
                done[index],
            )
            for index in range(0, len(done), 4)
        ]
        handles += self.host.open.values()
        handles.sort(key=attrgetter("invoked_at"))
        return handles

    def archive_register(self, key: str, archived: str) -> None:
        """Record every operation on *key* so far, open ones included, under
        the archive name *archived* (what dropping the register does)."""
        done = self._done
        for index in range(0, len(done), 4):
            if done[index] == key:
                done[index] = archived
        for handle in self.host.open.values():
            if handle.register_id == key:
                handle.register_id = archived

    async def stop(self) -> None:
        await super().stop()
        # Nothing answers an open operation once the node stops stepping.
        self._fail_callers(RuntimeError(f"node {self.process_id} stopped"))

    def _fail(self, cause: Exception) -> None:
        super()._fail(cause)
        self._fail_callers(cause)

    def _fail_callers(self, cause: Exception) -> None:
        # Every open operation stays open in the history (its client crashed
        # or stopped); whoever awaits one is told instead of left hanging.
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(NodeFailedError(self.process_id, cause))
