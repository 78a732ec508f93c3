"""Asyncio transports.

Two transports are provided:

* :class:`InMemoryTransport` — frames are handed to the destination's handler
  as objects, inline in ``send`` when the injected delay is zero and from a
  sleeping task otherwise.  This is the default for the wall-clock latency
  benchmarks: it exercises the real asyncio scheduling and timer machinery
  without depending on the loopback TCP stack.
* :class:`TcpTransport` — every server/client is reachable over a localhost TCP
  socket with length-prefixed binary wire frames (:mod:`repro.wire`).  Both
  ends of a connection are asyncio protocol objects: a listener parses and
  steps each frame in the socket's read callback, and a send writes its
  frame to the socket's transport.  This is used by the
  ``examples/asyncio_cluster.py`` example and by integration tests to show
  that the very same automata run over real sockets.

Both take a ``codec`` ("binary" by default) and count ``bytes_sent`` next to
``frames_sent``, so bytes-on-wire is an observable, not a guess.

**The handler contract.**  A handler is a coroutine function that steps the
frame and returns without suspending, as a node's does: it only fills its
outbox, arms timers and resolves futures (:mod:`repro.runtime.node`).  In
memory with zero delay, ``send`` awaits it; on TCP, the listener drives the
coroutine once inside its read callback, and a handler that suspends is
refused with a :class:`RuntimeError` that costs its connection.

**Backpressure.**  In memory there is none: a frame is handed over or put to
sleep.  On TCP a send waits while its link is paused, from the transport's
``pause_writing`` (the peer has stopped reading and the buffers are full) to
its ``resume_writing``; a node's flusher, the only sender of its links,
waits there with it.

What the channels guarantee, exactly:

* **Addressing.**  A frame reaches only the handler registered under the
  destination it was sent to (TCP: the listener of that process; the
  envelope's destination field is not consulted).
* **Order.**  Frames one task sends from one source to one destination
  arrive in the order it sent them: inline delivery and one ordered socket
  per ``(source, destination)`` by construction, sleeping delivery because
  under a constant delay a later send sleeps until a later instant.  A delay
  function that varies per frame may reorder them, as a real network may.
* **Reliability.**  Nothing is dropped between two live processes; a TCP send
  that finds its cached connection dead reconnects once and retries.
* **A TCP connection cannot switch identity; a fresh one can claim any.**
  The handler's ``source`` is the ``source`` argument of
  :meth:`Transport.send` in memory — every node passes its own process id,
  so there it is the real sender.  On TCP it is what the peer wrote into the
  envelope: the first frame on a connection binds that ``source`` to it,
  and a later frame claiming another costs the connection
  (``TcpTransport.connections_dropped``).  Nothing authenticates the first
  claim, so anything that can reach a listener can still open a connection
  and speak as any process; and neither transport nor node compares
  ``source`` with the ``sender`` field inside the message, which is what
  the automata count quorums by.  The paper's authenticated channels are
  therefore assumed of the deployment (one trusted process, or a trusted
  loopback), not provided by the transport.
* **Bounded ingress.**  A TCP listener refuses a frame whose length prefix
  exceeds :data:`MAX_FRAME_BYTES` before buffering it, and drops the
  connection that sent it — or that sent bytes that do not decode — counting
  it in ``TcpTransport.connections_dropped``; the node and its other
  connections are unaffected.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple, Union

from ..core.messages import Message
from ..wire import Codec, WireDecodeError, get_codec

#: Largest frame payload a TCP listener accepts (64 MiB, far above any real
#: frame).  The length prefix is checked against it before the frame is
#: buffered, so a peer can make a listener hold at most this plus one read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Bytes a listener reads at most in one go, into the one buffer its
#: transport lends every connection: in practice everything already
#: buffered, so one read usually carries many frames.
_READ_CHUNK = 256 * 1024

_LENGTH = struct.Struct("!I")

#: Delay function: (source, destination) -> seconds of artificial latency.
DelayFunction = Callable[[str, str], float]


def constant_delay(seconds: float) -> DelayFunction:
    """A delay function adding the same latency to every message."""

    def _delay(source: str, destination: str) -> float:
        return seconds

    return _delay


def no_delay(source: str, destination: str) -> float:
    return 0.0


class Transport:
    """Abstract transport: registration plus fire-and-forget sends.

    ``frames_sent`` counts transport-level frames (one per :meth:`send` that
    reaches the wire).  A :class:`~repro.core.messages.Batch` envelope is one
    frame however many protocol messages it carries, which is what makes the
    counter the observable for the batching layer's one-frame-per-batch
    guarantee.  ``bytes_sent`` is its twin: the encoded frame bytes those
    sends put on the wire (length prefix included), under the transport's
    configured codec.
    """

    frames_sent: int = 0
    bytes_sent: int = 0

    def register(self, process_id: str, handler: Callable[[str, Message], Awaitable[None]]) -> None:
        """Register *handler* as the inbound message callback of *process_id*."""
        raise NotImplementedError

    async def send(self, source: str, destination: str, message: Message) -> None:
        raise NotImplementedError

    async def connect(self, source: str, destination: str) -> None:
        """Establish the *source* -> *destination* link ahead of the first send
        (nothing to do on a connectionless transport)."""

    async def start(self) -> None:
        """Bring the transport up (bind sockets, start pumps)."""

    async def close(self) -> None:
        """Tear the transport down."""


class InMemoryTransport(Transport):
    """Object-passing transport with injectable per-message latency.

    With zero delay, :meth:`send` awaits the destination's handler itself:
    the frame has arrived when ``send`` returns, and no task or timer is made
    for it.  A node steps it inside that handler, except a durable node,
    which only schedules the step for a loop turn of its own (its fsync never
    runs inside a peer's ``send``): for a durable destination the frame has
    only been handed over.  This never nests one step inside another,
    because a step only fills its node's outbox and the node's flusher sends
    later.  A positive delay hands the frame to a task that sleeps that long
    first; :meth:`close` cancels the ones still asleep.

    Messages are handed over as objects (no socket), but every send is still
    *measured* through the codec: ``bytes_sent`` advances by the frame the TCP
    transport would have written, so byte accounting is identical across
    transports and the sim.
    """

    def __init__(
        self,
        delay: Optional[DelayFunction] = None,
        codec: Union[str, Codec, None] = None,
    ) -> None:
        self._handlers: Dict[str, Callable[[str, Message], Awaitable[None]]] = {}
        self._delay = delay or no_delay
        self._pending: set = set()
        self._closed = False
        self.codec = get_codec(codec)
        self.frames_sent = 0
        self.bytes_sent = 0

    def register(self, process_id: str, handler: Callable[[str, Message], Awaitable[None]]) -> None:
        self._handlers[process_id] = handler

    async def send(self, source: str, destination: str, message: Message) -> None:
        if self._closed:
            return
        handler = self._handlers.get(destination)
        if handler is None:
            return
        self.frames_sent += 1
        self.bytes_sent += self.codec.frame_size(source, destination, message)
        delay = self._delay(source, destination)
        if delay > 0:
            self._deliver_later(handler, source, message, delay)
        else:
            await handler(source, message)

    def _deliver_later(
        self,
        handler: Callable[[str, Message], Awaitable[None]],
        source: str,
        message: Message,
        delay: float,
    ) -> None:
        async def deliver() -> None:
            await asyncio.sleep(delay)
            if not self._closed:
                await handler(source, message)

        task = asyncio.create_task(deliver())
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    async def close(self) -> None:
        self._closed = True
        for task in list(self._pending):
            task.cancel()
        self._pending.clear()


# --------------------------------------------------------------------------- #
# TCP transport
# --------------------------------------------------------------------------- #


def _encode_frame(source: str, destination: str, message: Message, codec: Codec) -> bytearray:
    """Build one length-prefixed frame in a single buffer (no payload copy).

    The four prefix bytes are reserved up front and patched once the payload
    is in place, so a batch of N messages is encoded with exactly one
    allocation instead of prefix+payload concatenation.
    """
    frame = bytearray(4)
    codec.encode_envelope_into(frame, source, destination, message)
    _LENGTH.pack_into(frame, 0, len(frame) - 4)
    return frame


class _Connection(asyncio.BaseProtocol):
    """One socket of a :class:`TcpTransport`, accepted or opened.

    It joins its transport's open sockets when built and leaves them at
    ``connection_lost``, resolving :attr:`closed`: :meth:`TcpTransport.close`
    awaits that for every socket it knows.
    """

    #: Set by ``connection_made``, which runs before the accept or connect
    #: that built this protocol returns.
    transport: asyncio.Transport

    def __init__(self, owner: "TcpTransport") -> None:
        self._owner = owner
        self.closed = asyncio.get_running_loop().create_future()
        owner._sockets.add(self)

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        if self._owner._closed:  # made while close() ran: it owes nothing
            self.transport.abort()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._owner._sockets.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)


class _Inbound(_Connection, asyncio.BufferedProtocol):
    """A connection accepted by the listener of *process_id*.

    The socket reads into the transport's one read buffer (:meth:`get_buffer`;
    a read is parsed before the loop reads any socket again, so they can
    share it, and no read allocates).  :meth:`buffer_updated` parses what
    arrived, and each complete frame is stepped there and then by the
    handler registered under *process_id* at that moment; only the bytes of
    an incomplete frame are kept, per connection.  The first frame's
    envelope ``source`` binds the connection.
    """

    def __init__(self, owner: "TcpTransport", process_id: str) -> None:
        super().__init__(owner)
        self._process_id = process_id
        self._decode = owner.codec.decode_envelope
        # The bytes of a frame that is not complete yet (prefix included), and
        # how long they must grow before parsing can make progress again.
        self._pending = bytearray()
        self._wanted = 4
        # The process this connection speaks as, from its first frame on.
        self._source: Optional[str] = None

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._owner._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        data: Union[bytes, memoryview] = self._owner._read_buffer[:nbytes]
        pending = self._pending
        if pending:
            pending += data
            if len(pending) < self._wanted:
                return
            data = bytes(pending)
            pending.clear()
        handlers = self._owner._handlers
        offset, size, self._wanted = 0, len(data), 4
        while size - offset >= 4:
            (length,) = _LENGTH.unpack_from(data, offset)
            if length > MAX_FRAME_BYTES:
                self._drop()
                return
            end = offset + 4 + length
            if end > size:
                self._wanted = 4 + length
                break
            try:
                source, _destination, message = self._decode(bytes(data[offset + 4 : end]))
            except WireDecodeError:
                self._drop()
                return
            offset = end
            if source != self._source:
                if self._source is not None:  # the connection switched identity
                    self._drop()
                    return
                self._source = source
            # Resolve the handler per frame: a restarted node re-registers its
            # process id, and the listener — whose socket and port survive the
            # restart — must dispatch to the *current* node.
            handler = handlers.get(self._process_id)
            if handler is None:
                continue
            step = handler(source, message)
            try:
                step.send(None)
            except StopIteration:
                continue
            step.close()
            # asyncio reports what buffer_updated raises and aborts the socket.
            raise RuntimeError(
                f"the handler of {self._process_id!r} suspended on a frame; "
                "a TCP handler must step the frame and return"
            )
        if offset < size:
            pending += data[offset:]

    def _drop(self) -> None:
        """The peer is faulty (or speaks another format): it loses this
        connection; the node and every other connection carry on."""
        self._owner.connections_dropped += 1
        self.transport.close()


class _Link(_Connection, asyncio.Protocol):
    """The outbound connection of one ``(source, destination)`` pair.

    The peer never writes on it: a FIN from it (``eof_received``, whose
    default closes the transport) or a lost socket marks the link stale.
    ``pause_writing``/``resume_writing`` gate the senders.
    """

    def __init__(self, owner: "TcpTransport") -> None:
        super().__init__(owner)
        self.paused = False
        self._waiters: List[asyncio.Future] = []

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_result(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.resume_writing()  # a sender waiting on a lost link retries

    async def resumed(self) -> None:
        """Return once the link is no longer paused (or is lost)."""
        waiter = self.closed.get_loop().create_future()
        self._waiters.append(waiter)
        try:
            await waiter
        finally:
            self._waiters.remove(waiter)


class TcpTransport(Transport):
    """Localhost TCP transport with one listening socket per registered process.

    Each registered process binds an ephemeral port on ``127.0.0.1``; sends
    open (and cache) one outgoing connection per ``(source, destination)``
    pair.  Message framing is a 4-byte length prefix followed by the codec's
    ``(source, destination, message)`` envelope (versioned binary by
    default).  Both ends are asyncio protocols: no stream, task or lock
    stands between a socket and the code that uses its bytes.

    **Receiving.**  An accepted connection is an
    :class:`asyncio.BufferedProtocol`: the socket reads into the one buffer
    the transport lends all its connections, and ``buffer_updated`` parses
    every complete frame out of the read and steps it inline: it calls the
    handler and drives the coroutine once.  A handler must therefore finish
    without suspending, as a node's does (it steps the frame and only fills
    its outbox).  One that suspends is refused with a :class:`RuntimeError`,
    which costs that connection.  A length prefix above
    :data:`MAX_FRAME_BYTES`, a frame that does not decode, or a frame whose
    envelope ``source`` differs from the first frame's costs the peer that
    connection and nothing else: it is closed and counted in
    ``connections_dropped``.

    **Sending.**  :meth:`send` writes the frame to its link's socket at once.
    It waits only while the link connects (concurrent first sends share one
    connect) or while the link is paused: ``pause_writing`` fires when the
    peer stops reading and the kernel and transport buffers fill, and
    ``resume_writing`` when they drain.  That is the backpressure a flusher
    feels.  A send that finds the peer gone (a FIN or a reset on the cached
    link, or a write that fails) reconnects once and retries instead of
    dropping the message silently: the paper's channels are reliable, so the
    transport must not lose a message just because a connection was
    recycled.
    """

    def __init__(self, host: str = "127.0.0.1", codec: Union[str, Codec, None] = None) -> None:
        self.host = host
        self.codec = get_codec(codec)
        self._handlers: Dict[str, Callable[[str, Message], Awaitable[None]]] = {}
        self._listeners: Dict[str, socket.socket] = {}
        self._ports: Dict[str, int] = {}
        self._connections: Dict[Tuple[str, str], _Link] = {}
        # The connect under way for a link, shared by every send that needs it.
        self._connecting: Dict[Tuple[str, str], asyncio.Task] = {}
        # Accepted sockets becoming transports.
        self._accepting: Set[asyncio.Task] = set()
        # Every socket not yet lost, accepted or opened.
        self._sockets: Set[_Connection] = set()
        # What every accepted connection reads into (see _Inbound).
        self._read_buffer = memoryview(bytearray(_READ_CHUNK))
        self._closed = False
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Inbound connections closed because their peer sent an oversized
        #: length prefix, a frame that does not decode, or a frame claiming
        #: another source than the connection's first.
        self.connections_dropped = 0

    def register(self, process_id: str, handler: Callable[[str, Message], Awaitable[None]]) -> None:
        self._handlers[process_id] = handler

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        for process_id in self._handlers:
            listener = socket.create_server((self.host, 0))
            listener.setblocking(False)
            loop.add_reader(listener, self._accept, listener, process_id)
            self._listeners[process_id] = listener
            self._ports[process_id] = listener.getsockname()[1]

    def _accept(self, listener: socket.socket, process_id: str) -> None:
        """Accept every connection waiting on *listener* (the loop's reader
        callback).  Each becomes a transport in a task :meth:`close` awaits,
        which is why this is not an ``asyncio.Server``: closing one while it
        accepts leaves the accepted socket to the garbage collector."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                peer, _address = listener.accept()
            except OSError:  # BlockingIOError: none left
                return
            accepting = loop.create_task(
                loop.connect_accepted_socket(lambda: _Inbound(self, process_id), peer)
            )
            self._accepting.add(accepting)
            accepting.add_done_callback(self._accepting.discard)

    def _live_link(self, key: Tuple[str, str]) -> Optional[_Link]:
        link = self._connections.get(key)
        if link is None or link.transport.is_closing():
            return None
        return link

    async def _open(self, key: Tuple[str, str]) -> Optional[_Link]:
        """A fresh link for *key*; ``None`` when the destination is down or
        the transport closed."""
        connecting = self._connecting.get(key)
        if connecting is None:
            connecting = asyncio.get_running_loop().create_task(self._connect(key))
            self._connecting[key] = connecting
        # Shielded: a cancelled sender must not cancel the connect the others wait on.
        return await asyncio.shield(connecting)

    async def _connect(self, key: Tuple[str, str]) -> Optional[_Link]:
        try:
            _, link = await asyncio.get_running_loop().create_connection(
                lambda: _Link(self), self.host, self._ports[key[1]]
            )
        except OSError:
            return None
        finally:
            del self._connecting[key]
        if self._closed:  # close() ran while we connected; the link aborted itself
            return None
        self._connections[key] = link
        return link

    async def connect(self, source: str, destination: str) -> None:
        """Open the connection :meth:`send` would open on its first frame.

        A cluster connects its links when it starts: opened by the first
        frames instead, the handful of connects staggers the first operations
        of concurrent clients by a few loop iterations, and on a busy loop
        that offset persists -- it decides for seconds whether their sends
        share frames (``docs/benchmarks.md``, *Steady runs*).
        """
        if self._closed or destination not in self._ports:
            return
        key = (source, destination)
        if self._live_link(key) is None:
            await self._open(key)

    async def send(self, source: str, destination: str, message: Message) -> None:
        if self._closed or destination not in self._ports:
            return
        key = (source, destination)
        frame = _encode_frame(source, destination, message, self.codec)
        # One reconnect + retry: the first attempt may find the cached link
        # stale, or lose it while paused or writing, because the peer recycled
        # the connection; a fresh link failing too means the destination is
        # genuinely down, which the protocol layer tolerates (it is a crash,
        # not a lossy link).
        for _attempt in range(2):
            link = self._live_link(key) or await self._open(key)
            if link is None:
                return
            while link.paused:
                await link.resumed()
            if self._closed:
                return
            transport = link.transport
            if transport.is_closing():
                continue  # lost while paused
            transport.write(frame)
            # A write that fails closes the transport on the spot.
            if not transport.is_closing():
                self.frames_sent += 1
                self.bytes_sent += len(frame)
                return

    async def close(self) -> None:
        """Stop listening, then close every socket and wait until each is:
        nothing is left for ``__del__`` to find."""
        self._closed = True
        loop = asyncio.get_running_loop()
        for listener in self._listeners.values():
            loop.remove_reader(listener)
            listener.close()
        self._listeners.clear()
        # Accepts and connects under way finish; what they made aborts itself.
        await asyncio.gather(*self._accepting, *self._connecting.values(), return_exceptions=True)
        sockets = list(self._sockets)
        for connection in sockets:
            connection.transport.abort()
        await asyncio.gather(*(connection.closed for connection in sockets))
        self._connections.clear()
