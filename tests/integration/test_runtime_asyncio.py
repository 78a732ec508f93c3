"""Integration tests for the asyncio runtime (in-memory and TCP transports)."""

import asyncio
import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.baselines.abd import ABDProtocol
from repro.baselines.slow_robust import SlowRobustProtocol
from repro.core.automaton import Automaton, Effects, StartTimer
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.runtime.cluster import AsyncCluster, ShardedAsyncCluster, tcp_cluster
from repro.runtime.node import AutomatonNode, NodeFailedError
from repro.runtime.transport import constant_delay, InMemoryTransport
from repro.variants.regular import RegularStorageProtocol
from repro.verify.atomicity import check_atomicity
from repro.verify.regularity import check_regularity


def run(coro):
    return asyncio.run(coro)


class TestInMemoryRuntime:
    def test_write_then_read_round_trip(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)

        async def scenario(cluster):
            write = await cluster.write("hello")
            read = await cluster.read("r1")
            return write, read

        # A generous timer keeps the run "synchronous" even when the host is
        # busy (e.g. the whole suite running): fastness assertions stay about
        # the protocol, not about scheduling noise.
        write, read = AsyncCluster.run_scenario(
            LuckyAtomicProtocol(config), scenario, timer_delay=100.0
        )
        assert write.fast and write.rounds == 1
        assert read.fast and read.value == "hello"

    def test_run_scenario_runs_on_the_stock_event_loop(self):
        suite = LuckyAtomicProtocol(SystemConfig.balanced(1, 0, num_readers=1))

        async def scenario(cluster):
            await cluster.write("v1")
            read = await cluster.read("r1")
            return type(asyncio.get_running_loop()), read.value

        loop = asyncio.new_event_loop()
        stock = type(loop)
        loop.close()
        assert AsyncCluster.run_scenario(suite, scenario) == (stock, "v1")

    def test_history_is_atomic_across_clients(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)

        async def scenario(cluster):
            for index in range(3):
                await cluster.write(f"v{index}")
                await cluster.read(config.reader_ids()[index % 2])
            return cluster.history()

        history = AsyncCluster.run_scenario(LuckyAtomicProtocol(config), scenario)
        assert len(history) == 6
        assert check_atomicity(history).ok

    def test_concurrent_write_and_read_still_atomic(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)

        async def scenario(cluster):
            await cluster.write("v0")
            write_task = asyncio.create_task(cluster.write("v1"))
            read_task = asyncio.create_task(cluster.read("r1"))
            await asyncio.gather(write_task, read_task)
            return cluster.history()

        history = AsyncCluster.run_scenario(LuckyAtomicProtocol(config), scenario)
        assert check_atomicity(history).ok

    def test_crashed_servers_within_fw_keep_writes_fast(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)

        async def scenario():
            async with AsyncCluster(
                LuckyAtomicProtocol(config), crashed_servers=["s6"], timer_delay=100.0
            ) as cluster:
                write = await cluster.write("despite-crash")
                read = await cluster.read("r1")
                return write, read

        write, read = run(scenario())
        assert write.fast
        assert read.value == "despite-crash"

    def test_runtime_crash_beyond_fw_forces_slow_write(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)

        async def scenario():
            async with AsyncCluster(
                LuckyAtomicProtocol(config), crashed_servers=["s5", "s6"]
            ) as cluster:
                write = await cluster.write("slow-write")
                read = await cluster.read("r1")
                return write, read

        write, read = run(scenario())
        assert not write.fast and write.rounds == 3
        assert read.value == "slow-write"

    def test_latency_scales_with_injected_delay(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

        async def scenario(delay_s):
            async with AsyncCluster(
                LuckyAtomicProtocol(config),
                transport=InMemoryTransport(constant_delay(delay_s)),
                time_scale=delay_s,
            ) as cluster:
                write = await cluster.write("x")
                return write.metadata["latency_s"]

        fast = run(scenario(0.001))
        slow = run(scenario(0.01))
        assert slow > fast

    def test_no_timer_handles_left_after_a_thousand_operations(self):
        # Every fast operation disarms its own round-1 timer: neither the
        # node's handle table nor the loop's timer heap may accumulate them.
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

        async def scenario(cluster):
            for index in range(500):
                write = await cluster.write(f"v{index}")
                read = await cluster.read("r1")
                assert write.fast and read.fast
            clients = cluster.client_nodes.values()
            return (
                [dict(node._timer_handles) for node in clients],
                sum(node.timers_cancelled for node in clients),
            )

        handles, cancelled = AsyncCluster.run_scenario(
            LuckyAtomicProtocol(config),
            scenario,
            message_delay_s=0.0,
            timer_delay=2000.0,
        )
        assert handles == [{}, {}]
        assert cancelled == 1000

    def test_a_completed_operation_keeps_at_most_400_bytes(self):
        # A run keeps every operation for its history, so what one costs is
        # what the store grows by per operation.  Counted: what the program
        # itself allocated during the run and still holds at its end.
        config = SystemConfig.balanced(1, 0, num_readers=2)
        keys = [f"k{index}" for index in range(6)]
        src = str(Path(repro.__file__).resolve().parent)

        async def main():
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config),
                keys,
                mwmr=True,
                leases=True,
                writer_leases=True,
                message_delay_s=0.0,
            ) as store:
                clients = config.client_ids()
                for index, key in enumerate(keys):  # admit every register first
                    await store.write(key, "warm", client_id=clients[index % len(clients)])
                gc.collect()
                tracemalloc.start()
                try:
                    for index in range(2000):
                        key = keys[index % len(keys)]
                        client = clients[index % len(keys) % len(clients)]
                        await store.write(key, f"{key}:{index}", client_id=client)
                        await store.read(key, client)
                    gc.collect()
                    snapshot = tracemalloc.take_snapshot()
                finally:
                    tracemalloc.stop()
                assert store.verify_atomic()
            held = snapshot.filter_traces([tracemalloc.Filter(True, f"{src}{os.sep}*")])
            return sum(stat.size for stat in held.statistics("filename"))

        assert run(main()) / 4000 <= 400

    def test_a_fired_timer_leaves_nothing_for_the_cyclic_gc(self):
        # Lease timers live long enough to reach the oldest generation, so a
        # fired timer that is a reference cycle costs full collections.  Each
        # id is armed twice: re-arming a pending id replaces its armament, so
        # each fires once.
        fired = []

        class Ticker(Automaton):
            def on_timer(self, timer_id):
                fired.append(timer_id)
                return Effects()

        async def scenario():
            node = AutomatonNode(Ticker("s1"), InMemoryTransport())
            await node.start()
            try:
                gc.collect()
                gc.disable()
                try:
                    for index in range(1000):
                        for _ in range(2):
                            node.apply_effects(Effects(timers=[StartTimer(f"t{index}", 0.0)]))
                    while len(fired) < 1000:
                        await asyncio.sleep(0)
                    await asyncio.sleep(0)
                    return node._timer_handles, gc.collect()
                finally:
                    gc.enable()
            finally:
                await node.stop()

        handles, garbage = run(scenario())
        assert sorted(fired) == sorted(f"t{index}" for index in range(1000))
        assert handles == {}
        assert garbage == 0

    def test_a_raising_invocation_does_not_wedge_the_client(self):
        # The writer has no read(): the invocation raises inside the node.  It
        # must leave no pending slot behind, or every later operation of the
        # client fails with "already has a pending read", forever.
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

        async def scenario(cluster):
            with pytest.raises(AttributeError):
                await cluster.client_nodes["w"].invoke("read", None)
            write = await cluster.write("x")
            return write, await cluster.read("r1")

        write, read = AsyncCluster.run_scenario(
            LuckyAtomicProtocol(config), scenario, message_delay_s=0.0
        )
        assert write.kind == "write" and read.value == "x"

    def test_an_operation_whose_caller_gave_up_is_still_history(self):
        # The caller times out between the acks and its own patience; the
        # write still completes in the store.  Left out of the history, the
        # read that returns it would look like a value nobody ever wrote.
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

        async def scenario(cluster):
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(cluster.write("v1"), 0.075)
            still_open = cluster.history()
            await asyncio.sleep(0.3)
            read = await cluster.read("r1")
            return still_open, read, cluster.history()

        still_open, read, history = AsyncCluster.run_scenario(
            LuckyAtomicProtocol(config), scenario, message_delay_s=0.05
        )
        assert [(r.kind, r.value, r.complete) for r in still_open] == [("write", "v1", False)]
        assert read.value == "v1"
        assert [(r.kind, r.value, r.complete) for r in history] == [
            ("write", "v1", True),
            ("read", "v1", True),
        ]
        result = check_atomicity(history)
        assert result.ok and result.checked_writes == 1

    def test_a_raising_automaton_costs_one_node_not_a_hung_caller(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
        boom = ValueError("boom")

        async def scenario(cluster):
            writer = cluster.client_nodes["w"]

            def raise_on_first_ack(message):
                raise boom

            writer.automaton.handle_message = raise_on_first_ack
            with pytest.raises(NodeFailedError) as failed:
                await asyncio.wait_for(cluster.write("v1"), 5.0)
            assert failed.value.__cause__ is boom
            assert writer.crashed and writer.failure is boom
            with pytest.raises(NodeFailedError):  # refused, not left hanging
                await asyncio.wait_for(cluster.write("v2"), 5.0)
            # The rest of the cluster is a cluster with one crashed client.
            read = await asyncio.wait_for(cluster.read("r1"), 5.0)
            return read, cluster.history()

        # run_scenario leaves through ``async with``: stop() must not re-raise.
        read, history = AsyncCluster.run_scenario(LuckyAtomicProtocol(config), scenario)
        assert read.kind == "read"
        assert [(r.client_id, r.kind, r.complete) for r in history] == [
            ("w", "write", False),
            ("r1", "read", True),
        ]

    # In flight: the acks are still on the wire.  Zero delay: no quorum is
    # left to answer, so the write waits for as long as the store runs.
    @pytest.mark.parametrize("delay_s, crashed", [(0.05, ()), (0.0, ("s2", "s3"))])
    def test_an_operation_open_when_its_node_stops_is_answered(self, delay_s, crashed):
        base = LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1))

        async def scenario():
            store = ShardedAsyncCluster(
                base, ["k"], message_delay_s=delay_s, crashed_servers=crashed
            )
            await store.start()
            write = asyncio.ensure_future(store.write("k", "v1"))
            await asyncio.sleep(0.01)  # invoked, and not answered
            await store.stop()
            with pytest.raises(NodeFailedError) as failed:
                await asyncio.wait_for(write, 2.0)
            return failed.value, store.history()

        failed, history = run(scenario())
        assert "stopped" in str(failed.__cause__)
        assert [(r.kind, r.value, r.complete) for r in history] == [("write", "v1", False)]

    def test_regular_variant_runs_on_asyncio(self):
        suite = RegularStorageProtocol.for_parameters(t=1, b=1, num_readers=1)

        async def scenario(cluster):
            await cluster.write("value")
            read = await cluster.read("r1")
            return read, cluster.history()

        read, history = AsyncCluster.run_scenario(suite, scenario)
        assert read.value == "value"
        assert check_regularity(history).ok

    def test_abd_baseline_runs_on_asyncio(self):
        suite = ABDProtocol(SystemConfig.crash_only(t=1, num_readers=1))

        async def scenario(cluster):
            await cluster.write("value")
            return await cluster.read("r1")

        read = AsyncCluster.run_scenario(suite, scenario)
        assert read.value == "value" and read.rounds == 2

    def test_slow_robust_baseline_pays_its_rounds_in_wall_clock(self):
        delay_s = 0.005  # one-way, so a round trip is 10 ms

        def cycle(suite):
            async def scenario(cluster):
                write = await cluster.write("payload")
                read = await cluster.read("r1")
                return write, read

            # The lucky operations return on their fast ack, so the round-1
            # deadline only decides what a host pause does: at the default
            # (4 units, 20 ms) one full garbage collection of the test
            # process (15-28 ms here) made a lucky write slow.
            return AsyncCluster.run_scenario(
                suite, scenario, message_delay_s=delay_s, time_scale=delay_s, timer_delay=100.0
            )

        lucky = [
            cycle(LuckyAtomicProtocol(SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)))
            for _ in range(3)
        ]
        slow = [
            cycle(SlowRobustProtocol(SystemConfig(t=2, b=1, num_readers=1, enforce_tradeoff=False)))
            for _ in range(3)
        ]
        assert {(write.rounds, read.rounds) for write, read in lucky} == {(1, 1)}
        assert {(write.rounds, read.rounds) for write, read in slow} == {(3, 4)}
        # What a loaded host cannot take away: every round is a round trip of
        # injected delay (a timer fires at most a clock tick early).
        for operation in (op for pair in slow for op in pair):
            assert operation.metadata["latency_s"] >= operation.rounds * 2 * delay_s - 1e-6
        # The ordering, on the best of three: one descheduled sample is not a verdict.
        for index in (0, 1):  # writes, reads
            best_lucky = min(pair[index].metadata["latency_s"] for pair in lucky)
            best_slow = min(pair[index].metadata["latency_s"] for pair in slow)
            assert best_lucky < best_slow


class TestTcpRuntime:
    def test_full_cycle_over_tcp_sockets(self):
        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)

        async def scenario():
            async with tcp_cluster(LuckyAtomicProtocol(config)) as cluster:
                write = await cluster.write("over-tcp")
                read = await cluster.read("r1")
                return write, read, cluster.history()

        write, read, history = run(scenario())
        assert write.value == "over-tcp"
        assert read.value == "over-tcp"
        assert check_atomicity(history).ok

    def test_multiple_operations_over_tcp(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)

        async def scenario():
            async with tcp_cluster(LuckyAtomicProtocol(config)) as cluster:
                for index in range(3):
                    await cluster.write(f"v{index}")
                    read = await cluster.read(config.reader_ids()[index % 2])
                    assert read.value == f"v{index}"
                return cluster.history()

        history = run(scenario())
        assert check_atomicity(history).ok

    def test_start_connects_every_link_so_operations_open_none(self):
        """Connections opened by the first frames stagger concurrent clients;
        ``start()`` opens them all, and an operation finds its links ready."""
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)

        async def scenario():
            async with tcp_cluster(LuckyAtomicProtocol(config)) as cluster:
                transport = cluster.transport
                at_start = dict(transport._connections)
                frames_at_start = transport.frames_sent
                await cluster.write("v")
                for reader_id in config.reader_ids():
                    await cluster.read(reader_id)
                return at_start, frames_at_start, dict(transport._connections)

        at_start, frames_at_start, after = run(scenario())
        clients, servers = config.client_ids(), config.server_ids()
        assert set(at_start) == {
            link for c in clients for s in servers for link in ((c, s), (s, c))
        }
        assert frames_at_start == 0
        assert after == at_start

    def test_connect_is_idempotent_and_ignores_unknown_destinations(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

        async def scenario():
            async with tcp_cluster(LuckyAtomicProtocol(config)) as cluster:
                transport = cluster.transport
                before = dict(transport._connections)
                await transport.connect(config.writer_id, config.server_ids()[0])
                await transport.connect(config.writer_id, "nobody")
                return before, dict(transport._connections)

        before, after = run(scenario())
        assert after == before


def test_the_tcp_example_runs_clean():
    """``examples/asyncio_cluster.py`` is the one example over TCP sockets:
    it must finish, and leak no socket, as a user would run it."""
    root = Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "examples/asyncio_cluster.py"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "ResourceWarning" not in result.stderr  # raised in __del__, it only prints
