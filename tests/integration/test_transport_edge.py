"""The TCP edge: a malformed or oversized frame costs its peer one connection.

A listener checks every length prefix against ``MAX_FRAME_BYTES`` before it
buffers the frame, and a prefix over the cap or a frame that does not decode
closes that one connection (``TcpTransport.connections_dropped``).  The node
behind the listener, and every other connection to it, carry on: these tests
throw garbage, half-frames and huge prefixes at a live listener and then ask
the same node a well-formed ``Read``.  A flood of well-formed reads leaves
the node's memory flat: it steps each frame as it is parsed.

Run under ``-W error::ResourceWarning``: a dropped connection must release
its socket.
"""

import asyncio
import gc
import socket
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.messages import Read, ReadAck
from repro.core.server import StorageServer
from repro.runtime import transport as transport_module
from repro.runtime.node import AutomatonNode
from repro.runtime.transport import TcpTransport
from repro.wire import encode_envelope

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

CONFIG = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=1)


def frame(source, read_ts):
    """A well-formed frame carrying ``Read(read_ts)`` from *source* to s1."""
    payload = encode_envelope(source, "s1", Read(sender=source, read_ts=read_ts))
    return len(payload).to_bytes(4, "big") + payload


async def wait_until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0.002)


class Live:
    """Server ``s1`` behind a TCP listener; its replies reach recorder ``r1``."""

    def __init__(self):
        self.transport = TcpTransport()
        self.replies = []

        async def record(source, message):
            self.replies.append(message)

        self.transport.register("r1", record)
        self.node = AutomatonNode(StorageServer("s1", CONFIG), self.transport)
        self._next_ts = 0

    async def __aenter__(self):
        await self.transport.start()
        await self.node.start()
        return self

    async def __aexit__(self, *exc_info):
        await self.node.stop()
        await self.transport.close()

    async def connect(self):
        return await asyncio.open_connection(self.transport.host, self.transport._ports["s1"])

    async def send_raw(self, *pieces, pause=0.0):
        """Write *pieces* on a connection of their own, then hang up."""
        reader, writer = await self.connect()
        try:
            for piece in pieces:
                writer.write(piece)
                await writer.drain()
                await asyncio.sleep(pause)
        except ConnectionError:
            pass  # the listener dropped us mid-write
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass

    async def dropped_after(self, data, timeout=2.0):
        """Write *data* and report whether the listener closed the connection."""
        reader, writer = await self.connect()
        try:
            writer.write(data)
            await writer.drain()
            return await asyncio.wait_for(reader.read(), timeout) == b""
        except asyncio.TimeoutError:
            return False
        except ConnectionError:
            return True
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def answers_a_read(self):
        """Whether s1 answers a well-formed ``Read`` sent through the transport."""
        self._next_ts += 1
        read_ts = 1000 + self._next_ts
        await self.transport.send("r1", "s1", Read(sender="r1", read_ts=read_ts))
        await wait_until(lambda: any(m.read_ts == read_ts for m in self.replies))
        return any(isinstance(m, ReadAck) and m.read_ts == read_ts for m in self.replies)


def run(scenario):
    result = asyncio.run(scenario())
    gc.collect()  # surface a leaked socket as a ResourceWarning here
    return result


@settings(max_examples=10, deadline=None)
@given(garbage=st.lists(st.binary(max_size=600), min_size=1, max_size=6))
def test_garbage_costs_at_most_its_own_connection(garbage):
    async def scenario():
        async with Live() as live:
            answered = []
            for data in garbage:
                await live.send_raw(data)
                answered.append(await live.answers_a_read())
            return answered, live.node.failure

    answered, failure = run(scenario)
    assert answered == [True] * len(garbage)
    assert failure is None


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_half_frame_is_not_a_frame_and_costs_nothing(data):
    whole = frame("r1", 7)
    cut = data.draw(st.integers(min_value=1, max_value=len(whole) - 1))

    async def scenario():
        async with Live() as live:
            await live.send_raw(whole[:cut])
            answered = await live.answers_a_read()
            return answered, live.replies, live.transport.connections_dropped

    answered, replies, dropped = run(scenario)
    assert answered
    assert all(m.read_ts != 7 for m in replies)  # the half-frame never arrived
    assert dropped == 0  # a peer hanging up mid-frame is not a faulty peer


def test_frames_split_and_joined_across_reads_arrive_once_in_order():
    frames = [frame("r1", ts) for ts in range(1, 41)]
    stream = b"".join(frames)
    # Cuts inside prefixes, inside payloads and on frame boundaries.
    cuts = [0, 2, 9, len(frames[0]), len(frames[0]) + 3, len(stream) // 2, len(stream) - 1]
    pieces = [stream[a:b] for a, b in zip(cuts, [*cuts[1:], len(stream)], strict=True)]

    async def scenario():
        async with Live() as live:
            await live.send_raw(*pieces, pause=0.01)
            await wait_until(lambda: len(live.replies) >= 40)
            return [m.read_ts for m in live.replies], live.transport.connections_dropped

    read_stamps, dropped = run(scenario)
    assert read_stamps == list(range(1, 41))
    assert dropped == 0


def test_a_frame_that_does_not_decode_drops_its_connection_only():
    garbage = b"\x00\x00\x00\x05hello"

    async def scenario():
        async with Live() as live:
            _reader, bystander = await live.connect()
            dropped = await live.dropped_after(frame("r1", 1) + garbage + frame("r1", 2))
            await wait_until(lambda: live.replies)
            bystander.write(frame("r1", 3))  # another connection to the same node
            await bystander.drain()
            await wait_until(lambda: len(live.replies) >= 2)
            bystander.close()
            await bystander.wait_closed()
            return dropped, [m.read_ts for m in live.replies], live.transport.connections_dropped

    dropped, read_stamps, counted = run(scenario)
    assert dropped and counted == 1
    assert read_stamps == [1, 3]  # what came before the garbage was delivered


def test_a_huge_prefix_drops_the_connection_and_the_node_still_answers():
    async def scenario():
        async with Live() as live:
            dropped = await live.dropped_after(b"\xff\xff\xff\xff" + b"x" * 1000)
            return dropped, live.transport.connections_dropped, await live.answers_a_read()

    dropped, counted, answered = run(scenario)
    assert dropped and counted == 1
    assert answered


def test_the_cap_is_checked_on_the_prefix_before_the_frame_is_read(monkeypatch):
    cap = 64 * 1024
    monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", cap)

    async def scenario():
        async with Live() as live:
            at_cap = await live.dropped_after(struct.pack("!I", cap), timeout=0.3)
            over_cap = await live.dropped_after(struct.pack("!I", cap + 1))
            return at_cap, over_cap, live.transport.connections_dropped

    at_cap, over_cap, counted = run(scenario)
    assert not at_cap  # a frame of the cap is legal: the listener waits for it
    assert over_cap and counted == 1  # one byte more is refused on sight


def test_a_peer_cannot_make_a_listener_buffer_past_the_cap(monkeypatch):
    cap = 1024 * 1024
    monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", cap, raising=False)
    piece = b"\xab" * (64 * 1024)

    async def scenario():
        async with Live() as live:
            tracemalloc.start()
            try:
                # Announce a 4 GiB frame, then keep sending: 8 MiB in total.
                await live.send_raw(b"\xff\xff\xff\xff", *([piece] * 128))
                await asyncio.sleep(0.05)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, await live.answers_a_read()

    peak, answered = run(scenario)
    assert peak < cap + transport_module._READ_CHUNK
    assert answered


def test_a_flood_of_reads_leaves_the_node_bounded():
    """A node steps each frame as the listener parses it and keeps nothing
    per frame: flooding five times as many ``Read``s as its window does not
    raise its peak.

    The peer keeps at most *window* frames unanswered.  Without that window
    the peak measures what the sockets hold in flight: a node reads as fast
    as it can whatever its flusher has still to send, and its outbox has no
    bound yet.
    """
    burst, window = 500, 2_000

    async def flood(count):
        async with Live() as live:
            replies = 0

            async def count_reply(source, message):
                nonlocal replies
                replies += 1

            live.transport.register("r1", count_reply)  # keeps no reply
            frames = frame("r1", 1) * burst
            reader, writer = await live.connect()
            tracemalloc.start()
            try:
                for sent in range(burst, count + 1, burst):
                    await wait_until(lambda sent=sent: sent - replies <= window)
                    writer.write(frames)
                    await writer.drain()
                await wait_until(lambda: replies == count, timeout=30.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                writer.close()
                await writer.wait_closed()
            return peak, replies, live.node.failure

    small, answered_small, failed_small = run(lambda: flood(2_000))
    large, answered_large, failed_large = run(lambda: flood(10_000))
    assert (answered_small, answered_large) == (2_000, 10_000)
    assert failed_small is None and failed_large is None
    assert large < 2 * small


def test_a_tcp_peer_cannot_speak_as_another_process():
    async def scenario():
        transport = TcpTransport()
        received = []

        async def record(source, message):
            received.append((source, message.sender))

        transport.register("s1", record)
        await transport.start()
        try:
            reader, writer = await asyncio.open_connection(transport.host, transport._ports["s1"])
            writer.write(frame("r1", 1))  # the connection speaks as r1 ...
            writer.write(frame("r2", 2))  # ... then claims to be r2
            await writer.drain()
            await wait_until(lambda: len(received) >= 2, timeout=1.0)
            writer.close()
            await writer.wait_closed()
        finally:
            await transport.close()
        return received

    received = run(scenario)
    assert ("r1", "r1") in received
    assert all("r2" not in pair for pair in received)


async def send_and_hang_up(transport, data, timeout=2.0):
    """Write *data* on a connection of its own to s1; whether the listener
    closed it before *timeout*."""
    reader, writer = await asyncio.open_connection(transport.host, transport._ports["s1"])
    try:
        writer.write(data)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout) == b""
    except asyncio.TimeoutError:
        return False
    except ConnectionError:
        return True
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def test_a_connection_keeps_its_first_source_and_a_fresh_one_may_claim_any():
    async def scenario():
        transport = TcpTransport()
        received = []

        async def record(source, message):
            received.append((source, message.read_ts))

        transport.register("s1", record)
        await transport.start()
        try:
            switched = await send_and_hang_up(
                transport, frame("r1", 1) + frame("r2", 2) + frame("r1", 3)
            )
            fresh = await send_and_hang_up(transport, frame("r2", 4), timeout=0.3)
        finally:
            await transport.close()
        return switched, fresh, received, transport.connections_dropped

    switched, fresh, received, dropped = run(scenario)
    assert switched and dropped == 1  # the switch cost that connection
    assert not fresh  # nothing authenticates a first claim
    assert received == [("r1", 1), ("r2", 4)]


def test_a_handler_that_suspends_is_refused_and_costs_only_its_connection():
    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context["exception"]))
        transport = TcpTransport()
        received = []

        async def handler(source, message):
            if message.read_ts == 2:
                await asyncio.sleep(0)  # a handler must not suspend
            received.append(message.read_ts)

        transport.register("s1", handler)
        await transport.start()
        try:
            refused = await send_and_hang_up(
                transport, frame("r1", 1) + frame("r1", 2) + frame("r1", 3)
            )
            other = await send_and_hang_up(transport, frame("r1", 4), timeout=0.3)
            await wait_until(lambda: 4 in received)
        finally:
            await transport.close()
        return refused, other, received, errors, transport.connections_dropped

    refused, other, received, errors, dropped = run(scenario)
    assert refused and not other
    assert received == [1, 4]  # nothing after the refused frame, on that connection
    assert len(errors) == 1 and isinstance(errors[0], RuntimeError)
    assert "suspended" in str(errors[0])
    assert dropped == 0  # the fault is the handler's, not the peer's


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("turns", [0, 1, 2, 3, 10])
def test_close_leaves_no_socket_open_with_connections_just_accepted(turns):
    """Peers connect, the loop runs *turns* turns (accepting, building the
    protocols, running ``connection_made``; after 10 the connections are
    up), and ``close()`` comes in between: every accepted socket is closed
    when it returns."""

    async def scenario():
        loop = asyncio.get_running_loop()
        transport = TcpTransport()
        transport.register("s1", lambda source, message: None)
        await transport.start()
        peers = []
        for _ in range(3):
            peer = socket.create_connection((transport.host, transport._ports["s1"]))
            peer.setblocking(False)
            peers.append(peer)
        for _ in range(turns):
            await asyncio.sleep(0)
        await transport.close()
        left_open = len(transport._sockets)
        hung_up = []
        for peer in peers:
            try:
                hung_up.append(await asyncio.wait_for(loop.sock_recv(peer, 1), 1.0) == b"")
            except ConnectionError:
                hung_up.append(True)
            except asyncio.TimeoutError:
                hung_up.append(False)
            peer.close()
        return left_open, hung_up

    left_open, hung_up = run(scenario)
    assert left_open == 0
    assert hung_up == [True] * 3
