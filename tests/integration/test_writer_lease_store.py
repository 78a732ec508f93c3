"""Integration tests: writer leases end to end, sim + asyncio.

The load-bearing cases: a key holding *both* a read lease and a writer
lease (the leased 1-round write must still revoke conflicting read leases
before its acknowledgements complete, on both runtimes), and CAS under
crash recovery (a granter crashes mid-lease and recovers under a bumped
incarnation; its pre-crash promises are void and its stale grants are
fenced out by epoch).
"""

import asyncio

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.runtime.cluster import ShardedAsyncCluster, sharded_tcp_cluster
from repro.store.sim import ShardedSimStore
from repro.store.surface import find_router
from repro.verify.atomicity import check_atomicity


def build_dual_lease_store(**kwargs):
    config = kwargs.pop("config", None) or SystemConfig.balanced(1, 0, num_readers=3)
    kwargs.setdefault("lease_duration", 200.0)
    return ShardedSimStore(
        LuckyAtomicProtocol(config),
        ["hot"],
        mwmr=["hot"],
        leases=["hot"],
        writer_leases=["hot"],
        **kwargs,
    )


class TestDualLeaseSim:
    def test_leased_write_still_revokes_read_leases(self):
        store = build_dual_lease_store()
        store.write("hot", "v1")
        assert store.read("hot", "r1").rounds == 1
        leased_read = store.read("hot", "r1")
        assert leased_read.rounds == 0 and leased_read.result.metadata["lease"]
        # The writer holds its lease too: 1 round — but the write must not
        # complete until the server stack revoked r1's read lease.
        write = store.write("hot", "v2")
        assert write.rounds == 1 and write.result.metadata["lease"] is True
        fallback = store.read("hot", "r1")
        assert fallback.value == "v2" and fallback.rounds >= 1
        assert store.read("hot", "r1").rounds == 0  # re-acquired
        assert store.verify_atomic()
        assert store.lease_reads("r1") >= 2 and store.lease_writes("w") >= 1

    def test_leased_cas_observed_by_leased_readers(self):
        store = build_dual_lease_store()
        store.write("hot", "v1")
        store.read("hot", "r1")
        store.read("hot", "r1")
        cas = store.compare_and_swap("hot", "v1", "v2")
        assert cas.result.kind == "write"
        # The reader's stale cache died with the revocation: the next read
        # must see the CAS, never the leased "v1".
        assert store.read("hot", "r1").value == "v2"
        failed = store.compare_and_swap("hot", "v1", "x")
        assert failed.result.kind == "read" and failed.value == "v2"
        result = check_atomicity(store.history("hot"))
        assert result.ok and result.cas_writes == 1 and result.cas_failures == 1
        assert result.lease_reads >= 1
        store.run_until_quiescent()

    def test_many_readers_and_competing_writers_stay_atomic(self):
        store = build_dual_lease_store()
        store.write("hot", "v1")
        for reader_id in ("r1", "r2", "r3"):
            store.read("hot", reader_id)
            store.read("hot", reader_id)
        store.write("hot", "v2")  # holder's leased write
        store.write("hot", "x1", client_id="r1")  # competitor revokes it
        for reader_id in ("r1", "r2", "r3"):
            assert store.read("hot", reader_id).value == "x1"
        assert store.verify_atomic()
        store.run_until_quiescent()


class TestCasCrashRecoverySim:
    def build_durable(self, lease_duration=60.0):
        return build_dual_lease_store(lease_duration=lease_duration, durable=True)

    def test_cas_across_a_granter_recovery(self):
        store = self.build_durable()
        store.write("hot", "a")
        store.write("hot", "b")  # writer lease active
        writer = store.processes["w"].registers["hot"].writer
        assert writer.lease_held
        # A granter crashes mid-lease and recovers from its WAL: its lease
        # table is gone, it rejoins in grace under a bumped incarnation.
        store.crash("s1")
        store.run_for(1.0)
        store.recover_server("s1")
        assert store.incarnation("s1") == 1
        # The holder still has S - t clean granters; the CAS lands and the
        # recovered server's grace window keeps it from undercutting the
        # revocation protocol it forgot.
        cas = store.compare_and_swap("hot", "b", "c")
        assert cas.result.kind == "write"
        assert store.read("hot", "r1").value == "c"
        assert store.verify_atomic()
        store.run_until_quiescent()

    def test_grace_follows_a_register_admitted_after_the_recovery(self):
        store = self.build_durable(lease_duration=40.0)
        store.write("hot", "a")
        store.write("hot", "b")  # writer lease active
        assert store.processes["w"].registers["hot"].writer.lease_held
        # s1 granted the lease, then loses its whole log tail with the crash:
        # recovery finds nothing naming the key and does not admit it.
        store.crash("s1")
        store.run_for(1.0)
        store.recover_server("s1", lose_tail=store.processes["s1"].wal.record_count)
        assert "hot" not in find_router(store.processes["s1"]).registers
        store.crash("s2")  # a competing write now needs s1's replies
        competing = store.write("hot", "x", client_id="r1")
        # s3 revokes the holder within a round trip; s1 is admitted by the
        # competitor's query and parks it for the window the lease it forgot
        # could still be relied on.
        assert competing.completed_at - competing.invoked_at >= 40.0
        assert store.read("hot", "r2").value == "x"
        assert store.verify_atomic()
        store.run_until_quiescent()

    def test_stale_incarnation_acks_cannot_serve_a_leased_cas(self):
        from repro.core.messages import WriteAck

        store = self.build_durable()
        store.write("hot", "a")
        store.write("hot", "b")
        writer = store.processes["w"].registers["hot"].writer
        for server_id in ("s1", "s2"):
            store.crash(server_id)
            store.run_for(1.0)
            store.recover_server(server_id)
        # Two of three granters recovered: once their bumped epochs are
        # visible the clean quorum is gone and the lease must drop — a CAS
        # may not decide locally on the strength of fenced-out grants.
        writer.handle_message(WriteAck(sender="s1", ts=99, from_writer=True, epoch=1))
        writer.handle_message(WriteAck(sender="s2", ts=99, from_writer=True, epoch=1))
        assert not writer.lease_held
        cas = store.compare_and_swap("hot", "b", "c")
        assert cas.rounds == 2  # fell back to the query round
        assert "lease" not in cas.result.metadata
        assert store.read("hot", "r1").value == "c"
        assert store.verify_atomic()
        store.run_until_quiescent()


class TestWriterLeaseAsyncio:
    def test_dual_lease_lifecycle_in_memory(self):
        async def scenario():
            config = SystemConfig.balanced(1, 0, num_readers=2)
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config),
                ["hot"],
                mwmr=["hot"],
                leases=["hot"],
                writer_leases=["hot"],
                lease_duration=2000.0,
            ) as cluster:
                first = await cluster.write("hot", "v1")
                assert first.rounds == 2  # fallback + writer-lease acquisition
                await cluster.read("hot", "r1")
                leased_read = await cluster.read("hot", "r1")
                assert leased_read.rounds == 0 and leased_read.metadata["lease"]
                # Leased 1-round write revokes the read lease before acking.
                write = await cluster.write("hot", "v2")
                assert write.rounds == 1 and write.metadata["lease"] is True
                assert (await cluster.read("hot", "r1")).value == "v2"
                cas = await cluster.compare_and_swap("hot", "v2", "v3")
                assert cas.kind == "write" and cas.metadata["lease"] is True
                failed = await cluster.compare_and_swap("hot", "stale", "x")
                assert failed.kind == "read" and failed.rounds == 0
                assert failed.metadata["cas_failed"] is True
                rmw = await cluster.read_modify_write("hot", lambda v: v + "!")
                assert rmw.value == "v3!"
                result = check_atomicity(cluster.history("hot"))
                assert result.ok
                assert result.consistency == "mwmr-atomicity+conditional"
                assert result.cas_writes == 2 and result.cas_failures == 1
                assert result.lease_reads >= 1

        asyncio.run(scenario())

    def test_writer_lease_restart_durable(self, tmp_path):
        async def scenario():
            config = SystemConfig.balanced(1, 0, num_readers=2)
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config),
                ["hot"],
                mwmr=["hot"],
                writer_leases=["hot"],
                lease_duration=2000.0,
                durable=True,
                wal_dir=str(tmp_path),
            ) as cluster:
                await cluster.write("hot", "a")
                leased = await cluster.write("hot", "b")
                assert leased.metadata["lease"] is True
                cluster.crash_server("s1")
                await asyncio.sleep(0.01)
                node = await cluster.restart_server("s1")
                assert node.automaton.incarnation == 1
                # CAS completes against the surviving quorum; the recovered
                # granter is epoch-fenced and in its grace window.
                cas = await cluster.compare_and_swap("hot", "b", "c")
                assert cas.kind == "write"
                assert (await cluster.read("hot", "r1")).value == "c"
                assert check_atomicity(cluster.history("hot")).ok

        asyncio.run(scenario())

    def test_leased_writes_over_tcp(self):
        async def scenario():
            config = SystemConfig.balanced(1, 0, num_readers=2)
            async with sharded_tcp_cluster(
                LuckyAtomicProtocol(config),
                ["hot"],
                mwmr=["hot"],
                writer_leases=["hot"],
                lease_duration=2000.0,
            ) as cluster:
                await cluster.write("hot", "v1")
                leased = await cluster.write("hot", "v2")
                assert leased.rounds == 1 and leased.metadata["lease"] is True
                cas = await cluster.compare_and_swap("hot", "v2", "v3")
                assert cas.kind == "write"
                assert (await cluster.read("hot", "r1")).value == "v3"
                assert check_atomicity(cluster.history("hot")).ok

        asyncio.run(scenario())
