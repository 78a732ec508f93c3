"""Byte-accounting tests: ``bytes_sent`` on the sim and the asyncio transports.

The regression this file pins: the sim counts wire bytes on *both* of its
send paths (``_transmit`` and the filter's explicit-delay ``_push_explicit``),
the way ``frames_sent``/``messages_sent`` already were — PR 5 fixed a skew
where only one path maintained the counters.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.bench.sweeps import contended_run, dense_run, run, zipf_run
from repro.core.config import SystemConfig
from repro.core.messages import Read
from repro.core.protocol import LuckyAtomicProtocol
from repro.runtime.transport import InMemoryTransport, TcpTransport
from repro.sim.cluster import SimCluster
from repro.store.sim import ShardedSimStore
from repro.wire import BinaryCodec, get_codec


def _suite():
    return LuckyAtomicProtocol(SystemConfig.balanced(1, 0, num_readers=2))


class PaddedCodec(BinaryCodec):
    """Binary frames plus a fixed pad: a custom Codec instance whose frames
    are measurably bigger, standing in for any alternative wire format."""

    name = "padded"
    PAD = b"\x00" * 32

    def encode_envelope(self, source, destination, message):
        return super().encode_envelope(source, destination, message) + self.PAD

    def decode_envelope(self, data):
        return super().decode_envelope(data[: -len(self.PAD)])


class TestSimBytes:
    def test_bytes_counted_on_default_path(self):
        cluster = SimCluster(_suite())
        cluster.write("v1")
        cluster.read("r1")
        assert cluster.frames_sent > 0
        assert cluster.bytes_sent > 0

    def test_both_send_paths_agree(self):
        # An explicit-delay filter replaying the delay model's constant takes
        # every message through _push_explicit instead of _transmit; the
        # schedule is identical, so all three counters must agree exactly.
        via_transmit = SimCluster(_suite())
        via_transmit.write("v1")
        via_transmit.read("r1")

        via_explicit = SimCluster(
            _suite(),
            message_filter=lambda source, destination, message, now: 1.0,
        )
        via_explicit.write("v1")
        via_explicit.read("r1")

        assert via_explicit.frames_sent == via_transmit.frames_sent
        assert via_explicit.messages_sent == via_transmit.messages_sent
        assert via_explicit.bytes_sent == via_transmit.bytes_sent
        assert via_explicit.bytes_sent > 0

    def test_custom_codec_measures_bigger_frames(self):
        # bytes_sent must follow the *configured* codec's frame sizes, not a
        # hardcoded binary measurement.
        def run(codec):
            cluster = SimCluster(_suite(), codec=codec)
            cluster.write("v1")
            cluster.read("r1")
            return cluster

        binary, padded = run("binary"), run(PaddedCodec())
        assert binary.frames_sent == padded.frames_sent
        # A subclass that reshapes the envelope is measured, not computed.
        assert padded.bytes_sent - binary.bytes_sent == len(PaddedCodec.PAD) * binary.frames_sent

    def test_frame_overhead_charges_line_time(self):
        # With a per-frame line cost, a writer's fan-out frames serialize on
        # its outgoing line, so the same write takes strictly longer.
        free = SimCluster(_suite())
        costly = SimCluster(_suite(), frame_overhead=0.1)
        latency_free = free.write("v1").latency
        latency_costly = costly.write("v1").latency
        assert (costly.frames_sent, costly.bytes_sent) == (free.frames_sent, free.bytes_sent)
        assert latency_costly > latency_free

    def test_line_time_does_not_grow_with_frame_size(self):
        # The line is occupied for ``frame_overhead`` per frame whatever the
        # frame carries: a large value costs bytes, not virtual time.
        def write(value):
            cluster = SimCluster(_suite(), frame_overhead=0.1)
            return cluster.write(value).latency, cluster.bytes_sent

        small_latency, small_bytes = write("v")
        large_latency, large_bytes = write("v" * 4096)
        assert large_bytes > small_bytes + 4096
        assert large_latency == small_latency

    def test_store_exposes_bytes_sent(self):
        store = ShardedSimStore(_suite(), ["k1"])
        store.write("k1", "v1")
        assert store.bytes_sent == store.cluster.bytes_sent
        assert store.bytes_sent > 0


    # Frames, messages and bytes of three seeded store runs: the Byzantine
    # Zipf keyspace (forged timestamps put ints off the one-byte shape), a
    # contended MWMR keyspace and a leased one (batches of lease traffic).
    # The byte column is what the computed frame size must keep charging.
    @pytest.mark.parametrize(
        "spec, counters",
        [
            (zipf_run(byzantine=True), (1596, 1800, 81518)),
            (contended_run(2, num_operations=24), (156, 216, 8928)),
            (
                replace(dense_run(4, 48), leases=True, writer_leases=True, mwmr=True),
                (300, 456, 16596),
            ),
        ],
        ids=["zipf-byzantine", "contended-mwmr", "dense-leased"],
    )
    def test_seeded_store_runs_charge_pinned_byte_counts(self, spec, counters):
        store = run(spec)
        assert (store.frames_sent, store.messages_sent, store.bytes_sent) == counters


class TestTransportBytes:
    def test_in_memory_counts_codec_frame_size(self):
        async def scenario():
            transport = InMemoryTransport()
            received = []

            async def handler(source, message):
                received.append(message)

            transport.register("s1", handler)
            message = Read(sender="r1", read_ts=1)
            await transport.send("r1", "s1", message)
            await asyncio.sleep(0.01)
            expected = get_codec("binary").frame_size("r1", "s1", message)
            return transport.frames_sent, transport.bytes_sent, expected, received

        frames, sent_bytes, expected, received = asyncio.run(scenario())
        assert frames == 1
        assert sent_bytes == expected > 0
        assert len(received) == 1

    def test_in_memory_custom_codec_counts_more(self):
        async def scenario(codec):
            transport = InMemoryTransport(codec=codec)

            async def handler(source, message):
                pass

            transport.register("s1", handler)
            await transport.send("r1", "s1", Read(sender="r1", read_ts=1))
            await transport.close()
            return transport.bytes_sent

        assert asyncio.run(scenario("binary")) < asyncio.run(scenario(PaddedCodec()))

    def test_tcp_counts_frame_bytes_and_delivers(self):
        async def scenario():
            transport = TcpTransport()
            received = asyncio.Event()
            messages = []

            async def handler(source, message):
                messages.append((source, message))
                received.set()

            transport.register("s1", handler)
            transport.register("r1", handler)
            await transport.start()
            message = Read(sender="r1", read_ts=4, round=2)
            await transport.send("r1", "s1", message)
            await asyncio.wait_for(received.wait(), timeout=5.0)
            frames, sent = transport.frames_sent, transport.bytes_sent
            expected = get_codec("binary").frame_size("r1", "s1", message)
            await transport.close()
            return frames, sent, expected, messages

        frames, sent, expected, messages = asyncio.run(scenario())
        assert frames == 1
        assert sent == expected
        assert messages == [("r1", Read(sender="r1", read_ts=4, round=2))]

    def test_tcp_custom_codec_roundtrips(self):
        async def scenario():
            transport = TcpTransport(codec=PaddedCodec())
            received = asyncio.Event()
            messages = []

            async def handler(source, message):
                messages.append(message)
                received.set()

            transport.register("s1", handler)
            transport.register("r1", handler)
            await transport.start()
            await transport.send("r1", "s1", Read(sender="r1", read_ts=9))
            await asyncio.wait_for(received.wait(), timeout=5.0)
            sent = transport.bytes_sent
            await transport.close()
            return sent, messages

        sent, messages = asyncio.run(scenario())
        assert messages == [Read(sender="r1", read_ts=9)]
        assert sent > get_codec("binary").frame_size(
            "r1", "s1", Read(sender="r1", read_ts=9)
        )
