"""Durable asyncio nodes: file-backed WALs and recovery-on-restart."""

import asyncio
import os

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.persist.durable import DurableServer, storage_registers
from repro.runtime.cluster import AsyncCluster, ShardedAsyncCluster
from repro.runtime.transport import TcpTransport
from repro.verify.atomicity import check_atomicity


CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)


def run(coro):
    return asyncio.run(coro)


class TestDurableNodes:
    def test_server_nodes_write_wal_files(self, tmp_path):
        wal_dir = str(tmp_path)

        async def scenario():
            async with AsyncCluster(
                LuckyAtomicProtocol(CONFIG), durable=True, wal_dir=wal_dir
            ) as cluster:
                await cluster.write("v1")
                await cluster.read("r1")

        run(scenario())
        for server_id in CONFIG.server_ids():
            assert os.path.exists(os.path.join(wal_dir, f"{server_id}.wal"))
            assert os.path.exists(os.path.join(wal_dir, f"{server_id}.epoch"))

    def test_durable_cluster_requires_wal_dir(self):
        with pytest.raises(ValueError, match="wal_dir"):
            AsyncCluster(LuckyAtomicProtocol(CONFIG), durable=True)

    def test_restart_server_recovers_state_in_place(self, tmp_path):
        wal_dir = str(tmp_path)

        async def scenario():
            async with AsyncCluster(
                LuckyAtomicProtocol(CONFIG), durable=True, wal_dir=wal_dir
            ) as cluster:
                await cluster.write("v1")
                await cluster.write("v2")
                node = await cluster.restart_server("s1")
                automaton = node.automaton
                assert isinstance(automaton, DurableServer)
                assert automaton.incarnation == 1
                # The restarted node replayed its WAL: pre-restart state back.
                assert storage_registers(automaton)[""].pw.val == "v2"
                await cluster.write("v3")
                read = await cluster.read("r1")
                assert read.value == "v3"
                return cluster.history()

        history = run(scenario())
        assert check_atomicity(history).ok

    def test_restart_requires_durable(self):
        async def scenario():
            async with AsyncCluster(LuckyAtomicProtocol(CONFIG)) as cluster:
                with pytest.raises(ValueError, match="durable"):
                    await cluster.restart_server("s1")

        run(scenario())


class TestIncarnationFencing:
    def test_writes_flow_after_restart_under_fencing(self, tmp_path):
        """The bumped incarnation must not fence the *new* server's acks."""

        async def scenario():
            async with AsyncCluster(
                LuckyAtomicProtocol(CONFIG), durable=True, wal_dir=str(tmp_path)
            ) as cluster:
                await cluster.write("v1")
                await cluster.restart_server("s1")
                await cluster.write("v2")
                read = await cluster.read("r1")
                assert read.value == "v2"
                return cluster.history()

        history = run(scenario())
        assert check_atomicity(history).ok


class TestRecoveryAcrossClusterLifetimes:
    def test_sharded_store_survives_a_full_restart(self, tmp_path):
        wal_dir = str(tmp_path)
        base = LuckyAtomicProtocol(CONFIG)

        async def first_life():
            async with ShardedAsyncCluster(
                base, keys=["k1", "k2"], durable=True, wal_dir=wal_dir
            ) as store:
                await store.write("k1", "alpha")
                await store.write("k2", "beta")
                await store.write("k1", "alpha2")

        async def second_life():
            async with ShardedAsyncCluster(
                base, keys=["k1", "k2"], durable=True, wal_dir=wal_dir
            ) as store:
                read1 = await store.read("k1")
                read2 = await store.read("k2")
                node = store.server_nodes["s1"]
                return read1.value, read2.value, node.automaton.incarnation

        run(first_life())
        value1, value2, incarnation = run(second_life())
        assert (value1, value2) == ("alpha2", "beta")
        assert incarnation == 1

    def test_a_bounded_table_keeps_its_spilled_registers_over_a_full_restart(self, tmp_path):
        """Compaction truncates the log, so the snapshot must carry the
        registers the LRU table spilled as well as the resident ones: the
        spill store is the first life's memory and dies with it."""
        wal_dir = str(tmp_path)
        keys = [f"k{index}" for index in range(40)]
        base = LuckyAtomicProtocol(SystemConfig.balanced(t=1, b=0))

        def life():
            return ShardedAsyncCluster(
                base, keys=keys, durable=True, wal_dir=wal_dir, max_resident=4, compact_every=8
            )

        async def first_life():
            async with life() as store:
                for key in keys:
                    await store.write(key, f"{key}-v1")
                return store.evictions

        async def second_life():
            async with life() as store:
                return [(await store.read(key)).value for key in keys]

        assert run(first_life()) >= 2 * 36  # a write quorum's servers each spilled 36
        assert run(second_life()) == [f"{key}-v1" for key in keys]

    def test_third_life_bumps_incarnation_again(self, tmp_path):
        wal_dir = str(tmp_path)

        async def life(value=None):
            async with AsyncCluster(
                LuckyAtomicProtocol(CONFIG), durable=True, wal_dir=wal_dir
            ) as cluster:
                if value is not None:
                    await cluster.write(value)
                read = await cluster.read("r1")
                node = cluster.server_nodes["s1"]
                return read.value, node.automaton.incarnation

        _, first = run(life("v1"))
        value, second = run(life())
        _, third = run(life())
        assert (first, second, third) == (0, 1, 2)
        assert value == "v1"

    def test_tcp_restart_server_routes_to_the_new_node(self, tmp_path):
        """The TCP listener must dispatch to the node registered *now*.

        A write after the restart must reach the replacement automaton — if
        the listener still fed the stopped pre-restart node, the write would
        complete on the other servers' quorum while the recovered s1 silently
        rotted (the stopped node drops every frame it is handed)."""
        base = LuckyAtomicProtocol(CONFIG)

        async def scenario():
            async with ShardedAsyncCluster(
                base,
                keys=["k1"],
                transport=TcpTransport(),
                durable=True,
                wal_dir=str(tmp_path),
            ) as store:
                await store.write("k1", "before")
                node = await store.restart_server("s1")
                assert node.automaton.incarnation == 1
                await store.write("k1", "after")
                # The write completed on a 2-of-3 quorum that may exclude s1;
                # give s1's own frames a moment to land before inspecting it.
                inner = storage_registers(node.automaton)["k1"]
                for _ in range(100):
                    if inner.pw.val == "after":
                        break
                    await asyncio.sleep(0.01)
                assert inner.pw.val == "after"

        run(scenario())

    def test_tcp_cluster_recovers_over_restart(self, tmp_path):
        wal_dir = str(tmp_path)
        base = LuckyAtomicProtocol(CONFIG)

        async def first_life():
            async with ShardedAsyncCluster(
                base,
                keys=["k1"],
                transport=TcpTransport(),
                durable=True,
                wal_dir=wal_dir,
            ) as store:
                await store.write("k1", "tcp-value")

        async def second_life():
            async with ShardedAsyncCluster(
                base,
                keys=["k1"],
                transport=TcpTransport(),
                durable=True,
                wal_dir=wal_dir,
            ) as store:
                read = await store.read("k1")
                return read.value

        run(first_life())
        assert run(second_life()) == "tcp-value"

    def test_epoch_sidecar_is_written_atomically(self, tmp_path):
        """No torn sidecars: the epoch file always parses, no .tmp leftovers."""
        wal_dir = str(tmp_path)

        async def life():
            async with AsyncCluster(
                LuckyAtomicProtocol(CONFIG), durable=True, wal_dir=wal_dir
            ) as cluster:
                await cluster.write("v")
                await cluster.restart_server("s1")

        run(life())
        run(life())
        leftovers = [p for p in os.listdir(wal_dir) if p.endswith(".tmp")]
        assert leftovers == []
        for server_id in CONFIG.server_ids():
            with open(os.path.join(wal_dir, f"{server_id}.epoch")) as fh:
                int(fh.read().strip())  # must always parse

    def test_snapshot_compaction_over_restarts(self, tmp_path):
        wal_dir = str(tmp_path)

        async def writes(values):
            async with AsyncCluster(
                LuckyAtomicProtocol(CONFIG),
                durable=True,
                wal_dir=wal_dir,
                compact_every=3,
            ) as cluster:
                for value in values:
                    await cluster.write(value)

        async def read_back():
            async with AsyncCluster(
                LuckyAtomicProtocol(CONFIG),
                durable=True,
                wal_dir=wal_dir,
                compact_every=3,
            ) as cluster:
                read = await cluster.read("r1")
                return read.value

        run(writes([f"v{i}" for i in range(8)]))
        # Compaction ran: at least one server holds a snapshot file.
        snapshots = [
            path for path in os.listdir(wal_dir) if path.endswith(".snapshot")
        ]
        assert snapshots
        assert run(read_back()) == "v7"
