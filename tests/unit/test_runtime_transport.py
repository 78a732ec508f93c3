"""Unit tests for the asyncio transports and nodes."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.automaton import Automaton, Effects
from repro.core.config import SystemConfig
from repro.core.messages import PreWrite, Read, ReadAck, iter_unbatched
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.server import StorageServer
from repro.core.types import TimestampValue
from repro.runtime.cluster import ShardedAsyncCluster
from repro.runtime.node import AutomatonNode, NodeFailedError
from repro.runtime.transport import (
    InMemoryTransport,
    TcpTransport,
    Transport,
    constant_delay,
    no_delay,
)
from repro.wire import WireEncodeError


def run(coro):
    return asyncio.run(coro)


class _Recorder:
    """A minimal handler recording (source, message) pairs."""

    def __init__(self):
        self.received = []

    async def __call__(self, source, message):
        self.received.append((source, message))


class TestInMemoryTransport:
    def test_message_delivered_to_registered_handler(self):
        async def scenario():
            transport = InMemoryTransport()
            recorder = _Recorder()
            transport.register("s1", recorder)
            await transport.send("r1", "s1", Read(sender="r1", read_ts=1, round=1))
            await asyncio.sleep(0.01)
            return recorder.received

        received = run(scenario())
        assert len(received) == 1
        assert received[0][0] == "r1"

    def test_unknown_destination_is_dropped_silently(self):
        async def scenario():
            transport = InMemoryTransport()
            await transport.send("r1", "nowhere", Read(sender="r1"))
            return True

        assert run(scenario())

    def test_close_prevents_further_deliveries(self):
        async def scenario():
            transport = InMemoryTransport(constant_delay(0.05))
            recorder = _Recorder()
            transport.register("s1", recorder)
            await transport.send("r1", "s1", Read(sender="r1"))
            await transport.close()
            await asyncio.sleep(0.1)
            return recorder.received

        assert run(scenario()) == []

    def test_delay_function_is_applied(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = InMemoryTransport(constant_delay(0.05))
            arrival = {}

            async def timed_handler(source, message):
                arrival["at"] = loop.time()

            transport.register("s1", timed_handler)
            start = loop.time()
            await transport.send("r1", "s1", Read(sender="r1"))
            await asyncio.sleep(0.1)
            return arrival["at"] - start

        assert run(scenario()) >= 0.045

    def test_no_delay_helper(self):
        assert no_delay("a", "b") == 0.0
        assert constant_delay(0.25)("a", "b") == 0.25


class TestTcpTransport:
    def test_round_trip_over_sockets(self):
        async def scenario():
            transport = TcpTransport()
            recorder = _Recorder()
            transport.register("s1", recorder)
            await transport.start()
            await transport.send("r1", "s1", Read(sender="r1", read_ts=7, round=2))
            await asyncio.sleep(0.1)
            await transport.close()
            return recorder.received

        received = run(scenario())
        assert len(received) == 1
        source, message = received[0]
        assert source == "r1"
        assert message.read_ts == 7 and message.round == 2

    def test_send_to_unregistered_destination_is_ignored(self):
        async def scenario():
            transport = TcpTransport()
            await transport.start()
            await transport.send("r1", "ghost", Read(sender="r1"))
            await transport.close()
            return True

        assert run(scenario())


class TestAutomatonNode:
    def test_node_routes_replies_back_through_transport(self):
        config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=1)

        async def scenario():
            transport = InMemoryTransport()
            recorder = _Recorder()
            transport.register("r1", recorder)
            node = AutomatonNode(StorageServer("s1", config), transport, time_scale=0.001)
            await node.start()
            await transport.send("r1", "s1", Read(sender="r1", read_ts=1, round=1))
            await asyncio.sleep(0.05)
            await node.stop()
            await transport.close()
            return recorder.received

        received = run(scenario())
        assert len(received) == 1
        assert isinstance(received[0][1], ReadAck)

    def test_crashed_node_ignores_messages(self):
        config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=1)

        async def scenario():
            transport = InMemoryTransport()
            recorder = _Recorder()
            transport.register("r1", recorder)
            node = AutomatonNode(StorageServer("s1", config), transport, time_scale=0.001)
            node.crash()
            await node.start()
            await transport.send("r1", "s1", Read(sender="r1", read_ts=1, round=1))
            await asyncio.sleep(0.05)
            await node.stop()
            await transport.close()
            return recorder.received

        assert run(scenario()) == []

    def test_timer_effects_fire_through_the_event_loop(self):
        fired = []

        class TimerAutomaton(Automaton):
            def handle_message(self, message):
                effects = Effects()
                effects.start_timer("demo", 10.0)  # 10 units * 0.001 = 10 ms
                return effects

            def on_timer(self, timer_id):
                fired.append(timer_id)
                return Effects()

        async def scenario():
            transport = InMemoryTransport()
            node = AutomatonNode(TimerAutomaton("p1"), transport, time_scale=0.001)
            await node.start()
            await transport.send("x", "p1", Read(sender="x"))
            await asyncio.sleep(0.1)
            await node.stop()
            await transport.close()
            return fired

        assert run(scenario()) == ["demo"]


# --------------------------------------------------------------------------- #
# The per-frame plumbing: a frame is stepped where it lands, one flusher
# --------------------------------------------------------------------------- #

TRANSPORTS = {
    "memory": InMemoryTransport,
    "memory-delayed": lambda: InMemoryTransport(constant_delay(0.002)),
    "tcp": TcpTransport,
}


async def wait_until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0.002)


def carried(received):
    return [message for _source, frame in received for message in iter_unbatched(frame)]


class _Echo(Automaton):
    """Answers every message to its sender; batches like the store's processes."""

    batching = True

    def handle_message(self, message):
        effects = Effects()
        effects.send(message.sender, Read(sender=self.process_id, read_ts=message.read_ts))
        return effects


class _Wrapping(Transport):
    """The shape of a tracing wrapper: each handler is wrapped in another
    coroutine, and ``send`` awaits the inner transport's ``send``."""

    def __init__(self, inner):
        self.inner = inner
        self.arrivals = 0
        self.sends = 0

    def register(self, process_id, handler):
        async def stamped(source, message):
            self.arrivals += 1
            await handler(source, message)

        self.inner.register(process_id, stamped)

    async def send(self, source, destination, message):
        self.sends += 1
        await self.inner.send(source, destination, message)

    async def start(self):
        await self.inner.start()

    async def close(self):
        await self.inner.close()


class TestPerPairOrder:
    @pytest.mark.parametrize("kind", sorted(TRANSPORTS))
    @settings(max_examples=12, deadline=None)
    @given(sources=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
    def test_frames_of_one_pair_arrive_in_send_order(self, kind, sources):
        async def scenario():
            transport = TRANSPORTS[kind]()
            recorder = _Recorder()
            transport.register("d", recorder)
            await transport.start()
            sent = {}
            sends = []
            for source in sources:
                sent[source] = sent.get(source, 0) + 1
                message = Read(sender=source, read_ts=sent[source] - 1)
                sends.append(transport.send(source, "d", message))
            await asyncio.gather(*sends)  # the sources' sends interleave
            await wait_until(lambda: len(recorder.received) == len(sources))
            await transport.close()
            return sent, recorder.received

        sent, received = run(scenario())
        assert len(received) == len(sources)
        for source, count in sent.items():
            assert [m.read_ts for s, m in received if s == source] == list(range(count))


class _Fanout(Automaton):
    """Passes every message on to each of *peers*."""

    def __init__(self, process_id, peers):
        super().__init__(process_id)
        self.peers = peers

    def handle_message(self, message):
        effects = Effects()
        for peer in self.peers:
            effects.send(peer, Read(sender=self.process_id, read_ts=message.read_ts))
        return effects


class _Raising(Automaton):
    def handle_message(self, message):
        raise ValueError(f"{self.process_id} cannot take {message!r}")


def replies_waiting(node, destination="r1"):
    """Messages *node* has stepped out and its flusher has not sent yet."""
    return len(node.host._outbox.get(destination, ()))


class TestInlineArrival:
    def test_zero_delay_sends_create_no_task(self):
        config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=1)

        async def scenario():
            transport = InMemoryTransport()
            recorder = _Recorder()
            transport.register("r1", recorder)
            node = AutomatonNode(StorageServer("s1", config), transport)
            await node.start()
            before = len(asyncio.all_tasks())
            waiting = []
            for index in range(50):
                await transport.send("r1", "s1", Read(sender="r1", read_ts=index, round=1))
                waiting.append(replies_waiting(node))  # stepped when send returned
            await wait_until(lambda: len(recorder.received) == 50)
            after = len(asyncio.all_tasks())
            await node.stop()
            await transport.close()
            return before, after, waiting, recorder.received

        before, after, waiting, received = run(scenario())
        assert after == before
        assert waiting == list(range(1, 51))  # the flusher had no turn in between
        assert [m.read_ts for _s, m in received] == list(range(50))

    def test_a_timer_is_stepped_by_its_loop_callback(self):
        stepped_in = []

        class TimerAutomaton(Automaton):
            def handle_message(self, message):
                stepped_in.append(("message", asyncio.current_task()))
                effects = Effects()
                effects.start_timer("t", 1.0)
                return effects

            def on_timer(self, timer_id):
                stepped_in.append(("timer", asyncio.current_task()))
                return Effects()

        async def scenario():
            transport = InMemoryTransport()
            node = AutomatonNode(TimerAutomaton("p1"), transport, time_scale=0.001)
            await node.start()
            await transport.send("x", "p1", Read(sender="x"))
            await wait_until(lambda: len(stepped_in) == 2)
            await node.stop()
            await transport.close()
            return asyncio.current_task()

        sender = run(scenario())
        # The frame is stepped in the task whose send carried it; the timer
        # in the loop callback itself, no task at all.
        assert stepped_in == [("message", sender), ("timer", None)]

    def test_a_raising_receiver_crash_stops_itself_not_its_sender(self):
        async def scenario():
            transport = InMemoryTransport()
            good = _Recorder()
            transport.register("good", good)
            sender = AutomatonNode(_Fanout("p1", ["bad", "good"]), transport)
            bad = AutomatonNode(_Raising("bad"), transport)
            await sender.start()
            await bad.start()
            for read_ts in range(3):
                await transport.send("x", "p1", Read(sender="x", read_ts=read_ts))
                await wait_until(lambda: len(good.received) > read_ts)
            await bad.stop()
            await sender.stop()
            await transport.close()
            return sender, bad, [m.read_ts for _s, m in good.received]

        sender, bad, delivered = run(scenario())
        assert bad.crashed and isinstance(bad.failure, ValueError)
        assert sender.failure is None and not sender.crashed
        assert delivered == [0, 1, 2]  # the sender kept delivering to others

    def test_a_durable_node_steps_a_frame_on_its_own_loop_turn(self, tmp_path):
        config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=1)

        async def scenario():
            transport = InMemoryTransport()
            transport.register("r1", _Recorder())
            node = AutomatonNode(
                StorageServer("s1", config), transport, durable=True, wal_dir=str(tmp_path)
            )
            await node.start()
            await transport.send("r1", "s1", Read(sender="r1", read_ts=1, round=1))
            at_return = replies_waiting(node)
            await asyncio.sleep(0)
            one_turn_later = replies_waiting(node)
            await node.stop()
            await transport.close()
            return at_return, one_turn_later, node.failure

        at_return, one_turn_later, failure = run(scenario())
        assert (at_return, one_turn_later) == (0, 1)
        assert failure is None

    def test_a_stopped_durable_node_drops_frames_and_leaves_its_wal_alone(self, tmp_path):
        config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=1)

        def pre_write(ts):  # a message the server must log before it answers
            value = TimestampValue(ts, f"v{ts}")
            return PreWrite(sender="w", ts=ts, pw=value, w=value)

        async def scenario():
            transport = InMemoryTransport()
            recorder = _Recorder()
            transport.register("w", recorder)
            node = AutomatonNode(
                StorageServer("s1", config), transport, durable=True, wal_dir=str(tmp_path)
            )
            await node.start()
            # Arrives while the node runs; its turn comes after stop() began.
            await transport.send("w", "s1", pre_write(1))
            await node.stop()
            # Arrives after stop(), when the WAL is closed.
            await transport.send("w", "s1", pre_write(2))
            await asyncio.sleep(0.01)
            await transport.close()
            return node, recorder.received

        node, received = run(scenario())
        assert node.failure is None and not node.crashed
        assert replies_waiting(node, "w") == 0 and received == []
        assert (tmp_path / "s1.wal").stat().st_size == 0

    @pytest.mark.parametrize("kind", ["memory", "tcp"])
    def test_a_handler_wrapping_a_handler_is_awaited_end_to_end(self, kind):
        config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=1)

        async def scenario():
            transport = _Wrapping(TRANSPORTS[kind]())
            recorder = _Recorder()
            transport.register("r1", recorder)
            node = AutomatonNode(StorageServer("s1", config), transport)
            await transport.start()
            await node.start()
            await transport.send("r1", "s1", Read(sender="r1", read_ts=3, round=1))
            await wait_until(lambda: recorder.received)
            await node.stop()
            await transport.close()
            return transport, recorder.received

        transport, received = run(scenario())
        assert [type(m) for _s, m in received] == [ReadAck]
        assert transport.sends == transport.arrivals == 2


class TestOneFlusher:
    @staticmethod
    def flushers():
        return [
            task
            for task in asyncio.all_tasks()
            if task.get_coro().__qualname__ == "AutomatonNode._flush_outbox"
        ]

    def test_a_node_has_one_flusher_and_stop_leaves_no_task(self):
        async def scenario():
            transport = InMemoryTransport()
            recorder = _Recorder()
            transport.register("r1", recorder)
            node = AutomatonNode(_Echo("p1"), transport)
            await node.start()
            counts = []
            for tick in range(20):
                for index in range(3):
                    await transport.send("r1", "p1", Read(sender="r1", read_ts=3 * tick + index))
                await asyncio.sleep(0)
                counts.append(len(self.flushers()))
            await wait_until(lambda: len(carried(recorder.received)) == 60)
            await node.stop()
            left = asyncio.all_tasks() - {asyncio.current_task()}
            await transport.close()
            return counts, recorder.received, left

        counts, received, left = run(scenario())
        assert counts == [1] * 20
        assert [m.read_ts for m in carried(received)] == list(range(60))
        assert len(received) < 60  # replies of one wake-up share a frame
        assert left == set()

    def test_a_crashed_node_drains_its_outbox_and_sends_nothing(self):
        async def scenario():
            transport = InMemoryTransport()
            recorder = _Recorder()
            transport.register("r1", recorder)
            node = AutomatonNode(_Echo("p1"), transport)
            await node.start()
            effects = Effects()
            effects.send("r1", Read(sender="p1", read_ts=1))
            node.apply_effects(effects)  # buffered; the flusher is woken
            node.crash()
            await asyncio.sleep(0.01)
            outbox = node.host.drain()
            await node.stop()
            await transport.close()
            return recorder.received, outbox, transport.frames_sent

        received, outbox, frames = run(scenario())
        assert received == [] and frames == 0
        assert outbox == []  # the flusher emptied it

    def test_a_frame_that_cannot_be_sent_crash_stops_the_node(self):
        base = LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1))

        async def scenario():
            async with ShardedAsyncCluster(base, ["k"], message_delay_s=0.0) as store:
                with pytest.raises(NodeFailedError) as raised:
                    await asyncio.wait_for(store.write("k", object()), 5.0)
                return raised.value.__cause__, store.client_nodes["w"].failure

        cause, failure = run(scenario())
        assert isinstance(cause, WireEncodeError) and failure is cause
