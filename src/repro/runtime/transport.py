"""Asyncio transports.

Two transports are provided:

* :class:`InMemoryTransport` — frames are handed to the destination's handler
  as objects, inline in ``send`` when the injected delay is zero and from a
  sleeping task otherwise.  This is the default for the wall-clock latency
  benchmarks: it exercises the real asyncio scheduling and timer machinery
  without depending on the loopback TCP stack.
* :class:`TcpTransport` — every server/client is reachable over a localhost TCP
  socket with length-prefixed binary wire frames (:mod:`repro.wire`).  This is
  used by the ``examples/asyncio_cluster.py`` example and by integration tests
  to show that the very same automata run over real sockets.

Both take a ``codec`` ("binary" by default) and count ``bytes_sent`` next to
``frames_sent``, so bytes-on-wire is an observable, not a guess.

What the channels guarantee, exactly:

* **Addressing.**  A frame reaches only the handler registered under the
  destination it was sent to (TCP: the listener of that process; the
  envelope's destination field is not consulted).
* **Order.**  Frames from one source to one destination arrive in the order
  they were sent: inline delivery and one ordered socket by construction,
  sleeping delivery because under a constant delay a later send sleeps until
  a later instant.  A delay function that varies per frame may reorder
  them, as a real network may.
* **Reliability.**  Nothing is dropped between two live processes; a TCP send
  that finds its cached connection dead reconnects once and retries.
* **Identity is not enforced.**  The handler's ``source`` is the ``source``
  argument of :meth:`Transport.send` in memory — every node passes its own
  process id, so there it is the real sender — and on TCP it is whatever the
  peer wrote into the envelope: anything that can reach a listener can claim
  to be any process.  Neither transport nor node compares ``source`` with the
  ``sender`` field inside the message, which is what the automata count
  quorums by.  The paper's authenticated channels are therefore assumed of
  the deployment (one trusted process, or a trusted loopback), not provided
  by the transport; ``tests/integration/test_transport_edge.py`` pins the TCP
  gap as a strict xfail.
* **Bounded ingress.**  A TCP listener refuses a frame whose length prefix
  exceeds :data:`MAX_FRAME_BYTES` before buffering it, and drops the
  connection that sent it — or that sent bytes that do not decode — counting
  it in ``TcpTransport.connections_dropped``; the node and its other
  connections are unaffected.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Awaitable, Callable, Dict, Optional, Tuple, Union

from ..core.messages import Message
from ..wire import Codec, WireDecodeError, get_codec

#: Largest frame payload a TCP listener accepts (64 MiB, far above any real
#: frame).  The length prefix is checked against it before the frame is
#: buffered, so a peer can make a listener hold at most this plus one read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Bytes a listener asks of its socket per read: everything already buffered,
#: in practice, so one read usually carries many frames.
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
    the frame has arrived — a node has stepped it — when ``send`` returns,
    and no task or timer is made for it.  This never nests one step inside
    another, because a step only fills its node's outbox and the node's
    flusher sends later.  A positive delay hands the frame to a task that
    sleeps that long first; :meth:`close` cancels the ones still asleep.

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


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close *writer* and wait for the underlying socket to be released."""
    writer.close()
    try:
        await writer.wait_closed()
    except asyncio.CancelledError:
        # Teardown is racing an external cancellation; the transport is
        # already closing, so the socket will still be released.
        pass
    except (ConnectionError, OSError):
        pass


class TcpTransport(Transport):
    """Localhost TCP transport with one listening socket per registered process.

    Each registered process binds an ephemeral port on ``127.0.0.1``; sends
    open (and cache) one outgoing connection per destination.  Message framing
    is a 4-byte length prefix followed by the codec's ``(source, destination,
    message)`` envelope (versioned binary by default).  The envelope's source
    is believed, so this is adequate only where every peer that can reach a
    listener is trusted with its identity (module docstring).

    A listener parses every complete frame out of each read and dispatches
    them in order: a node steps each frame as it is parsed.  A length prefix
    above :data:`MAX_FRAME_BYTES`, or a frame that does not decode, costs the
    peer that connection and nothing else: it is closed and counted in
    ``connections_dropped``.

    Concurrent senders share the cached connection of their ``(source,
    destination)`` pair, so each connection is guarded by an
    :class:`asyncio.Lock`: without it, two tasks could interleave their
    ``write()``/``drain()`` calls and corrupt the length-prefixed framing.  A
    send that finds the peer gone (stale cached connection, connection reset,
    broken pipe) reconnects once and retries instead of dropping the message
    silently — the paper's channel model is reliable links, so the transport
    must not lose messages just because a kernel buffer was recycled.
    """

    def __init__(self, host: str = "127.0.0.1", codec: Union[str, Codec, None] = None) -> None:
        self.host = host
        self.codec = get_codec(codec)
        self._handlers: Dict[str, Callable[[str, Message], Awaitable[None]]] = {}
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        self._ports: Dict[str, int] = {}
        self._connections: Dict[
            Tuple[str, str], Tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._connection_locks: Dict[Tuple[str, str], asyncio.Lock] = {}
        self._serve_tasks: set = set()
        self._closed = False
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Inbound connections closed because their peer sent an oversized
        #: length prefix or a frame that does not decode.
        self.connections_dropped = 0

    def register(self, process_id: str, handler: Callable[[str, Message], Awaitable[None]]) -> None:
        self._handlers[process_id] = handler

    async def start(self) -> None:
        for process_id in self._handlers:
            server = await asyncio.start_server(
                lambda reader, writer, pid=process_id: self._serve(reader, writer, pid),
                host=self.host,
                port=0,
            )
            self._servers[process_id] = server
            self._ports[process_id] = server.sockets[0].getsockname()[1]

    async def _serve(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        process_id: str,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._serve_tasks.add(task)
        decode = self.codec.decode_envelope
        # The bytes of a frame that is not complete yet (prefix included), and
        # how long they must grow before parsing can make progress again.
        pending, wanted = bytearray(), 4
        try:
            while not self._closed:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                if pending:
                    pending += data
                    if len(pending) < wanted:
                        continue
                    data = bytes(pending)
                    pending.clear()
                offset, size, wanted = 0, len(data), 4
                while size - offset >= 4:
                    (length,) = _LENGTH.unpack_from(data, offset)
                    if length > MAX_FRAME_BYTES:
                        raise WireDecodeError(
                            f"frame of {length} bytes announced; the cap is {MAX_FRAME_BYTES}"
                        )
                    end = offset + 4 + length
                    if end > size:
                        wanted = 4 + length
                        break
                    source, _destination, message = decode(data[offset + 4 : end])
                    offset = end
                    # Resolve the handler per frame: a restarted node
                    # re-registers its process id, and the listener — whose
                    # socket and port survive the restart — must dispatch to
                    # the *current* node, not the one registered at start.
                    handler = self._handlers.get(process_id)
                    if handler is not None:
                        await handler(source, message)
                if offset < size:
                    pending += memoryview(data)[offset:]
        except WireDecodeError:
            # The peer is faulty (or speaks another format): it loses this
            # connection; the node and every other connection carry on.
            self.connections_dropped += 1
        except (asyncio.CancelledError, ConnectionError):
            # Teardown while the connection is idle, or the peer reset it:
            # swallow it so the event loop does not log an unhandled error.
            pass
        finally:
            if task is not None:
                self._serve_tasks.discard(task)
            await _close_writer(writer)

    def _connection_stale(
        self, connection: Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
    ) -> bool:
        if connection is None:
            return True
        reader, writer = connection
        # ``at_eof()`` flips as soon as the peer's FIN is processed, letting us
        # notice a closed peer *before* writing into the dead socket (the
        # first write after a clean peer close succeeds silently at the TCP
        # level, so waiting for an exception would lose that frame).
        return writer.is_closing() or reader.at_eof()

    async def _drop_connection(self, key: Tuple[str, str]) -> None:
        connection = self._connections.pop(key, None)
        if connection is not None:
            await _close_writer(connection[1])

    async def _open_connection(
        self, key: Tuple[str, str]
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        """Replace the cached connection of *key* by a fresh one (its lock is
        held); ``None`` when the destination is down or the transport closed."""
        await self._drop_connection(key)
        try:
            connection = await asyncio.open_connection(self.host, self._ports[key[1]])
        except OSError:
            return None
        if self._closed:
            # close() ran while we were connecting; it has already swept the
            # cache, so caching now would leak the socket.
            await _close_writer(connection[1])
            return None
        self._connections[key] = connection
        return connection

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
        lock = self._connection_locks.setdefault(key, asyncio.Lock())
        async with lock:
            if self._connection_stale(self._connections.get(key)):
                await self._open_connection(key)

    async def send(self, source: str, destination: str, message: Message) -> None:
        if self._closed or destination not in self._ports:
            return
        key = (source, destination)
        # setdefault is atomic here: asyncio is single-threaded and there is
        # no await between the lookup and the insertion.
        lock = self._connection_locks.setdefault(key, asyncio.Lock())
        frame = _encode_frame(source, destination, message, self.codec)
        async with lock:
            # One reconnect + retry: the first attempt may fail (or be known
            # stale) because the peer recycled the cached connection; a fresh
            # connection failing too means the destination is genuinely down,
            # which the protocol layer tolerates (it is a crash, not a lossy
            # link).
            for _attempt in range(2):
                if self._closed:
                    return
                connection = self._connections.get(key)
                if self._connection_stale(connection):
                    connection = await self._open_connection(key)
                    if connection is None:
                        return
                writer = connection[1]
                try:
                    writer.write(frame)
                    await writer.drain()
                    self.frames_sent += 1
                    self.bytes_sent += len(frame)
                    return
                except OSError:  # ConnectionResetError, BrokenPipeError, ...
                    await self._drop_connection(key)

    async def close(self) -> None:
        self._closed = True
        for key in list(self._connections):
            await self._drop_connection(key)
        self._connection_locks.clear()
        # Cancel in-flight _serve coroutines (each closes its own connection
        # in its ``finally`` block) and wait for them to unwind.
        for task in list(self._serve_tasks):
            task.cancel()
        if self._serve_tasks:
            await asyncio.gather(*self._serve_tasks, return_exceptions=True)
        self._serve_tasks.clear()
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        self._servers.clear()
