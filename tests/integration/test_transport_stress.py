"""Stress tests for the TCP transport's framing and reconnect behaviour.

These tests pin down the two historical transport bugs:

* concurrent ``send`` tasks sharing one cached connection could interleave
  their ``write()``/``drain()`` calls and corrupt the length-prefixed framing;
* a send hitting a reset/recycled connection silently dropped the message
  instead of reconnecting, and teardown leaked sockets (``ResourceWarning``
  under ``-W error``).
"""

import asyncio
import gc
import socket
import struct

import pytest

from repro.core.messages import Read, Write
from repro.core.types import TimestampValue
from repro.runtime.transport import TcpTransport, _Inbound
from repro.wire import decode_envelope


def run(coro):
    return asyncio.run(coro)


class _Recorder:
    def __init__(self):
        self.received = []

    async def __call__(self, source, message):
        self.received.append((source, message))


@pytest.mark.filterwarnings("error::ResourceWarning")
class TestTcpStress:
    def test_concurrent_sends_preserve_every_frame(self):
        """≥200 concurrent sends over one cached connection: no loss/corruption."""
        num_messages = 250

        async def scenario():
            transport = TcpTransport()
            recorder = _Recorder()
            transport.register("b", recorder)
            await transport.start()
            await asyncio.gather(
                *(
                    transport.send(
                        "a",
                        "b",
                        Write(
                            sender="a",
                            round=2,
                            ts=index,
                            pair=TimestampValue(index, f"payload-{index}" * 7),
                        ),
                    )
                    for index in range(num_messages)
                )
            )
            # Let the receiving side drain its socket before teardown.
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(recorder.received) < num_messages:
                if asyncio.get_running_loop().time() > deadline:
                    break
                await asyncio.sleep(0.01)
            await transport.close()
            return recorder.received

        received = run(scenario())
        gc.collect()  # surface any leaked-socket ResourceWarning deterministically
        assert len(received) == num_messages
        # Zero corruption: every frame decodes to exactly the message sent.
        by_ts = {message.ts: message for _source, message in received}
        assert sorted(by_ts) == list(range(num_messages))
        for index in range(num_messages):
            message = by_ts[index]
            assert message.sender == "a"
            assert message.pair == TimestampValue(index, f"payload-{index}" * 7)

    def test_bidirectional_concurrent_sends(self):
        """Two processes hammering each other concurrently lose nothing."""
        per_direction = 120

        async def scenario():
            transport = TcpTransport()
            to_b, to_a = _Recorder(), _Recorder()
            transport.register("a", to_a)
            transport.register("b", to_b)
            await transport.start()
            await asyncio.gather(
                *(
                    transport.send("a", "b", Read(sender="a", read_ts=i, round=1))
                    for i in range(per_direction)
                ),
                *(
                    transport.send("b", "a", Read(sender="b", read_ts=i, round=2))
                    for i in range(per_direction)
                ),
            )
            deadline = asyncio.get_running_loop().time() + 5.0
            while (
                len(to_a.received) < per_direction or len(to_b.received) < per_direction
            ):
                if asyncio.get_running_loop().time() > deadline:
                    break
                await asyncio.sleep(0.01)
            await transport.close()
            return to_a.received, to_b.received

        to_a, to_b = run(scenario())
        gc.collect()
        assert {m.read_ts for _s, m in to_b} == set(range(per_direction))
        assert {m.read_ts for _s, m in to_a} == set(range(per_direction))
        assert all(m.round == 1 for _s, m in to_b)
        assert all(m.round == 2 for _s, m in to_a)

    def test_reconnects_after_peer_closes_connection(self):
        """A send after the peer dropped the cached connection still delivers."""

        async def scenario():
            transport = TcpTransport()
            recorder = _Recorder()
            transport.register("b", recorder)
            await transport.start()
            await transport.send("a", "b", Read(sender="a", read_ts=1, round=1))
            while not recorder.received:
                await asyncio.sleep(0.01)

            # Peer closes every accepted connection (e.g. the server restarted
            # or the OS recycled the socket).
            accepted = [c for c in transport._sockets if isinstance(c, _Inbound)]
            for connection in accepted:
                connection.transport.close()
            await asyncio.gather(*(connection.closed for connection in accepted))
            await asyncio.sleep(0.05)  # let the FIN reach the cached connection

            stale = transport._connections[("a", "b")]
            await transport.send("a", "b", Read(sender="a", read_ts=2, round=1))
            fresh = transport._connections[("a", "b")]

            deadline = asyncio.get_running_loop().time() + 5.0
            while len(recorder.received) < 2:
                if asyncio.get_running_loop().time() > deadline:
                    break
                await asyncio.sleep(0.01)
            await transport.close()
            return recorder.received, stale is not fresh

        received, reconnected = run(scenario())
        gc.collect()
        assert reconnected, "send should have replaced the stale cached connection"
        assert [m.read_ts for _s, m in received] == [1, 2]

    def test_a_peer_that_stops_reading_pauses_send_and_loses_nothing(self):
        """``send`` waits while the link is paused (``pause_writing``) and
        every frame arrives, in order, once the peer reads again."""
        # 16 MiB in all: four times the largest send buffer Linux grows a
        # socket to by default, so the link must pause.
        count, payload = 256, "x" * 65536

        async def scenario():
            loop = asyncio.get_running_loop()
            transport = TcpTransport()
            await transport.start()
            # A peer that accepts and then does not read.
            listener = socket.create_server(("127.0.0.1", 0))
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            listener.setblocking(False)
            transport._ports["b"] = listener.getsockname()[1]

            async def sender():
                for index in range(count):
                    message = Write(
                        sender="a", round=2, ts=index, pair=TimestampValue(index, payload)
                    )
                    await transport.send("a", "b", message)

            sending = asyncio.create_task(sender())
            peer, _ = await loop.sock_accept(listener)
            listener.close()
            deadline = loop.time() + 5.0
            link = None
            while (link is None or not link.paused) and loop.time() < deadline:
                await asyncio.sleep(0.01)
                link = transport._connections.get(("a", "b"))
            paused_while_sending = link is not None and link.paused and not sending.done()

            received, stream = [], bytearray()
            while len(received) < count:
                chunk = await asyncio.wait_for(loop.sock_recv(peer, 1 << 20), 5.0)
                assert chunk, "the link closed before every frame arrived"
                stream += chunk
                while len(stream) >= 4:
                    (length,) = struct.unpack_from("!I", stream)
                    if len(stream) < 4 + length:
                        break
                    received.append(decode_envelope(bytes(stream[4 : 4 + length]))[2].ts)
                    del stream[: 4 + length]
            await sending
            await transport.close()
            peer.close()
            return paused_while_sending, received, transport.frames_sent

        paused_while_sending, received, frames_sent = run(scenario())
        gc.collect()
        assert paused_while_sending
        assert received == list(range(count))
        assert frames_sent == count

    def test_close_is_idempotent_and_stops_sends(self):
        async def scenario():
            transport = TcpTransport()
            recorder = _Recorder()
            transport.register("b", recorder)
            await transport.start()
            await transport.send("a", "b", Read(sender="a", read_ts=1))
            await transport.close()
            await transport.close()
            await transport.send("a", "b", Read(sender="a", read_ts=2))
            return True

        assert run(scenario())
        gc.collect()
