"""Integration tests for contention handling, write-backs and the freezing
mechanism (Theorems 1 and 2)."""

import pytest

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import SimCluster
from repro.sim.latency import FixedDelay, SlowProcessDelay
from repro.verify.atomicity import check_atomicity
from repro.verify.linearizability import cross_validate
from repro.workload.generator import contended_workload, run_workload


def build(config, **kwargs):
    kwargs.setdefault("delay_model", FixedDelay(1.0))
    return SimCluster(LuckyAtomicProtocol(config), **kwargs)


class TestContention:
    def test_read_concurrent_with_write_returns_old_or_new(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        cluster = build(config)
        cluster.write("old")
        cluster.run_for(5.0)
        write = cluster.start_write("new")
        read = cluster.start_read("r1")
        cluster.run(until=lambda: write.done and read.done)
        assert read.value in ("old", "new")
        assert check_atomicity(cluster.history()).ok

    def test_contended_workload_remains_atomic_and_linearizable(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        cluster = build(config)
        run_workload(cluster, contended_workload(5, config.reader_ids(), write_gap=8.0))
        history = cluster.history()
        assert check_atomicity(history).ok
        assert cross_validate(history) in (True, None)

    @pytest.mark.filterwarnings("ignore:network has no synchronous bound:RuntimeWarning")
    def test_degraded_network_forces_slow_reads_under_contention(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        delay = SlowProcessDelay(
            base=FixedDelay(1.0), slow_processes={"s5", "s6"}, extra_delay=40.0
        )
        cluster = build(config, delay_model=delay)
        handles = run_workload(
            cluster, contended_workload(4, config.reader_ids(), write_gap=60.0, read_offset=0.5)
        )
        reads = [handle for handle in handles if handle.kind == "read"]
        assert any(not handle.fast for handle in reads)
        assert all(handle.result.metadata["writeback"] for handle in reads if not handle.fast)
        assert check_atomicity(cluster.history()).ok

    @pytest.mark.filterwarnings("ignore:network has no synchronous bound:RuntimeWarning")
    def test_reads_during_slow_write_phases_stay_atomic(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=1, num_readers=2)
        delay = SlowProcessDelay(
            base=FixedDelay(1.0), slow_processes={"s6"}, extra_delay=25.0
        )
        cluster = build(config, delay_model=delay)
        cluster.write("v1")
        write = cluster.start_write("v2")
        first = cluster.start_read("r1")
        cluster.run_for(3.0)
        second = cluster.start_read("r2")
        cluster.run(until=lambda: write.done and first.done and second.done)
        assert check_atomicity(cluster.history()).ok


class TestFreezing:
    @pytest.mark.filterwarnings("ignore:network has no synchronous bound:RuntimeWarning")
    def test_reader_terminates_under_a_stream_of_writes(self):
        """Wait-freedom case (b): unbounded writes cannot starve a READ.

        The network is slow towards the reader's round-trips (so its rounds
        keep missing the moving value) while the writer keeps writing; the
        freezing mechanism must eventually deliver a frozen value to the
        reader.
        """
        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
        # Reads are slow: every message to/from the reader takes much longer
        # than a full write, so each read round spans several writes.
        delay = SlowProcessDelay(base=FixedDelay(1.0), slow_processes={"r1"}, extra_delay=9.0)
        cluster = build(config, delay_model=delay)
        cluster.write("seed")
        cluster.run_for(5.0)

        read = cluster.start_read("r1")
        write_count = 0

        def pump_writes():
            nonlocal write_count
            if read.done or write_count >= 60:
                return read.done or write_count >= 60
            if not cluster.writer.busy:
                write_count += 1
                cluster.start_write(f"stream-{write_count}")
            return False

        cluster.run(until=pump_writes)
        cluster.run(until=lambda: read.done, max_events=400_000)
        assert read.done, "the READ must terminate despite unbounded concurrent writes"
        assert check_atomicity(cluster.history()).ok

    @pytest.mark.filterwarnings("ignore:network has no synchronous bound:RuntimeWarning")
    def test_slow_read_announces_itself_to_servers(self):
        """A READ that needs more than one round writes its timestamp to servers.

        That announcement (Fig. 3, line 10) is the hook the freezing mechanism
        relies on: the writer learns about the outstanding READ through the
        ``newread`` piggyback of its next PW round.
        """
        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
        delay = SlowProcessDelay(base=FixedDelay(1.0), slow_processes={"r1"}, extra_delay=9.0)
        cluster = build(config, delay_model=delay)
        cluster.write("seed")
        cluster.run_for(5.0)
        read = cluster.start_read("r1")
        writes_issued = 0
        while not read.done and writes_issued < 60:
            if not cluster.writer.busy:
                writes_issued += 1
                cluster.start_write(f"w{writes_issued}")
            cluster.run_for(2.0)
        cluster.run(until=lambda: read.done, max_events=400_000)
        assert read.done
        if read.result.metadata["read_rounds"] >= 2:
            announced = [
                server_id
                for server_id in config.server_ids()
                if cluster.server(server_id).describe().get("read_ts", {}).get("r1", 0) >= 1
            ]
            assert announced, "a multi-round READ must have announced its timestamp somewhere"
        assert check_atomicity(cluster.history()).ok

    @pytest.mark.parametrize(
        "policy",
        [TimerPolicy.WAIT, TimerPolicy.DEADLINE],
        ids=["paper_faithful", "deadline"],
    )
    def test_freeze_chain_announce_freeze_deliver_return(self, policy):
        """End-to-end freezing chain with the automata wired by hand.

        The real automata (reader, writer, servers) are driven through the
        adversarial interleaving that makes freezing necessary: the reader's
        round 1 observes an unconfirmable mix of pre-written values and moves
        to round 2 (announcing its timestamp to the servers); the writer's next
        WRITE picks the announcement up via ``newread``, freezes its current
        pair and ships the directive; the servers store it; and the reader
        finally returns the frozen value through the ``safeFrozen`` path.
        Only the READ_ACKs the adversary controls are fabricated — every state
        transition under test is performed by the real protocol code.

        The chain is the same under both round-1 policies: with ``fw = 0`` the
        deadline writer returns on the last of the ``S`` acknowledgements, so
        it has seen every ``newread`` report the paper-faithful one sees.
        """
        from repro.core.messages import ReadAck, WriteAck
        from repro.core.reader import AtomicReader
        from repro.core.server import StorageServer
        from repro.core.types import INITIAL_PAIR, TimestampValue
        from repro.core.writer import AtomicWriter

        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
        writer = AtomicWriter(config, timer_delay=5.0, timer_policy=policy)
        reader = AtomicReader("r1", config, timer_delay=5.0, timer_policy=policy)
        servers = {sid: StorageServer(sid, config) for sid in config.server_ids()}

        def run_write(value):
            effects = writer.write(value)
            acks = []
            for send in effects.sends:
                reply = servers[send.destination].handle_message(send.message)
                acks.extend(reply.sends)
            on_ack = []
            for ack in acks:
                on_ack.extend(writer.handle_message(ack.message).completions)
            on_timer = writer.on_timer(f"w/op{writer._op_counter}/pw").completions
            assert on_ack or on_timer, "hand-driven write should finish in the PW phase"
            assert bool(on_ack) == (policy is TimerPolicy.DEADLINE)

        # A completed first write seeds the servers.
        run_write("v1")

        # READ round 1: the adversary shows the reader three mutually
        # unconfirmable pre-written values, so C stays empty and round 2 starts.
        reader.read()
        fabricated = {
            "s2": TimestampValue(7, "phantom-a"),
            "s3": TimestampValue(8, "phantom-b"),
            "s4": TimestampValue(1, "v1"),
        }
        for sid, pair in fabricated.items():
            reader.handle_message(
                ReadAck(
                    sender=sid,
                    read_ts=reader.read_ts,
                    round=1,
                    pw=pair,
                    w=TimestampValue(1, "v1"),
                    vw=INITIAL_PAIR,
                )
            )
        round2 = reader.on_timer(f"r1/op1/read-round-1")
        round2_reads = [send for send in round2.sends]
        assert round2_reads and all(send.message.round == 2 for send in round2_reads)

        # The round-2 READ messages reach the servers: the announcement lands.
        for send in round2_reads:
            servers[send.destination].handle_message(send.message)
        assert all(server.read_ts["r1"] == reader.read_ts for server in servers.values())

        # The next WRITE's PW acknowledgements report the announcement and the
        # writer freezes its current pair for r1 ...
        run_write("v2")
        assert writer.read_ts["r1"] == reader.read_ts
        assert writer.frozen and writer.frozen[0].reader_id == "r1"
        frozen_pair = writer.frozen[0].pair

        # ... and the following WRITE ships the directive to the servers.
        run_write("v3")
        assert all(
            server.frozen["r1"].pair == frozen_pair
            and server.frozen["r1"].read_ts == reader.read_ts
            for server in servers.values()
        )

        # The adversary keeps the live state unconfirmable in round 2, but the
        # genuine frozen entries now reach the reader: safeFrozen carries it.
        finishing = None
        for sid in ("s2", "s3", "s4"):
            finishing = reader.handle_message(
                ReadAck(
                    sender=sid,
                    read_ts=reader.read_ts,
                    round=2,
                    pw=TimestampValue(20 + ord(sid[-1]), f"phantom-{sid}"),
                    w=TimestampValue(1, "v1"),
                    vw=INITIAL_PAIR,
                    frozen=servers[sid].frozen["r1"],
                )
            )
        # The frozen pair was selected; being past round 1 the reader writes it
        # back (three rounds) before returning it.
        assert any(send.message.round == 1 for send in finishing.sends)
        completion = None
        for round_number in (1, 2, 3):
            for sid in ("s2", "s3", "s4"):
                result = reader.handle_message(
                    WriteAck(sender=sid, round=round_number, ts=reader.read_ts)
                )
                if result.completions:
                    completion = result.completions[0]
        assert completion is not None
        assert completion.value == frozen_pair.val
        assert not completion.fast
