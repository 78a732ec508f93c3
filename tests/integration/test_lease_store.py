"""Integration tests: read leases on the sharded store, sim + asyncio.

Covers the lease lifecycle end to end (acquire on a fallback read, serve in
zero rounds, revoke on write, expire in virtual time), the atomicity of
lease-served histories under writer races and Byzantine granters, and the
crash-recovery interplay: a durable granter that crashes mid-lease and
recovers must not let a write bypass the lease it forgot, and the holder
fences the recovered incarnation's grants out by epoch.
"""

import asyncio

import pytest

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.runtime.cluster import ShardedAsyncCluster, sharded_tcp_cluster
from repro.sim.byzantine import ForgeHighTimestampStrategy
from repro.store.sharding import ShardedProtocol
from repro.store.sim import ShardedSimStore
from repro.store.surface import find_router
from repro.verify.atomicity import check_atomicity
from repro.workload.generator import keyspace_workload, run_workload


def build_store(config=None, keys=("hot", "cold"), leases=("hot",), **kwargs):
    config = config or SystemConfig.balanced(1, 0, num_readers=3)
    return ShardedSimStore(
        LuckyAtomicProtocol(config),
        list(keys),
        leases=leases if isinstance(leases, bool) else list(leases),
        lease_duration=kwargs.pop("lease_duration", 60.0),
        **kwargs,
    )


class TestLeasedShardedStore:
    def test_leased_key_serves_zero_round_reads(self):
        store = build_store()
        store.write("hot", "v1")
        first = store.read("hot", "r1")
        assert first.rounds == 1
        for _ in range(3):
            read = store.read("hot", "r1")
            assert read.rounds == 0
            assert read.result.metadata["lease"] is True
            assert read.value == "v1"
        # The sibling key is untouched: plain protocol reads, no lease.
        store.write("cold", "c1")
        cold = store.read("cold", "r1")
        assert cold.rounds >= 1 and "lease" not in cold.result.metadata
        assert store.verify_atomic()
        assert store.lease_reads("r1") == 3
        assert store.leased_keys == ["hot"]

    def test_write_revokes_before_completing(self):
        store = build_store()
        store.write("hot", "v1")
        store.read("hot", "r1")
        assert store.read("hot", "r1").rounds == 0
        write = store.write("hot", "v2")
        # The revocation round trip happens inside the write's PW wait.
        assert write.done
        fallback = store.read("hot", "r1")
        assert fallback.value == "v2"
        assert fallback.rounds >= 1
        assert store.read("hot", "r1").rounds == 0  # re-acquired
        assert store.verify_atomic()

    def test_many_holders_all_revoked(self):
        store = build_store()
        store.write("hot", "v1")
        for reader_id in ("r1", "r2", "r3"):
            store.read("hot", reader_id)
            assert store.read("hot", reader_id).rounds == 0
        store.write("hot", "v2")
        for reader_id in ("r1", "r2", "r3"):
            assert store.read("hot", reader_id).value == "v2"
        assert store.verify_atomic()

    def test_lease_read_racing_a_write_stays_atomic(self):
        store = build_store()
        store.write("hot", "v1")
        store.read("hot", "r1")
        write = store.start_write("hot", "v2")
        store.run_for(0.5)
        # The revoke is still in flight: this read may legitimately be served
        # from the lease (it overlaps the write), but the history must
        # linearize either way.
        racing = store.start_read("hot", "r1")
        store.run(until=lambda: write.done and racing.done)
        after = store.read("hot", "r1")
        assert after.value == "v2"
        assert store.verify_atomic()

    def test_checker_counts_lease_served_reads(self):
        store = build_store()
        store.write("hot", "v1")
        store.read("hot", "r1")
        store.read("hot", "r1")
        result = check_atomicity(store.history("hot"))
        assert result.ok and result.lease_reads == 1

    def test_read_heavy_zipf_workload_all_keys_leased(self):
        config = SystemConfig.balanced(1, 0, num_readers=3)
        store = build_store(
            config=config,
            keys=[f"k{i}" for i in range(1, 5)],
            leases=True,
            lease_duration=400.0,
        )
        workload = keyspace_workload(
            120,
            store.keys,
            config.reader_ids(),
            write_fraction=0.05,
            skew=1.1,
            mean_gap=0.2,
        )
        run_workload(store, workload)
        assert store.verify_atomic()
        assert store.lease_reads() > 20
        store.run_until_quiescent()  # all lease timers drain

    def test_one_leased_hot_key_is_checkable(self):
        # The workload read leases exist for: thousands of operations on one
        # key.  The all-pairs checkers could not read it (cubic in the
        # operations of one register); the sweep takes milliseconds.
        config = SystemConfig.balanced(1, 0, num_readers=3)
        store = build_store(config=config, keys=["hot"], leases=True, lease_duration=400.0)
        workload = keyspace_workload(
            4000, store.keys, config.reader_ids(), write_fraction=0.02, mean_gap=0.2
        )
        run_workload(store, workload)
        assert store.verify_atomic()
        result = store.check_atomicity()["hot"]
        assert result.checked_reads + result.checked_writes == 4000
        assert result.lease_reads > 1000 and not result.warnings

    def test_byzantine_granter_cannot_break_lease_atomicity(self):
        # b=1: one server forges read replies on every register; the clean
        # grant rule and the b-tolerant quorum arithmetic must keep every
        # lease-served history atomic.
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=3)
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            ["hot", "cold"],
            byzantine={"s1": ForgeHighTimestampStrategy},
            leases=["hot"],
            lease_duration=80.0,
        )
        store.write("hot", "v1")
        store.read("hot", "r1")
        store.read("hot", "r1")
        store.write("hot", "v2")
        assert store.read("hot", "r1").value == "v2"
        assert store.verify_atomic()

    def test_leases_and_mwmr_are_mutually_exclusive(self):
        config = SystemConfig.balanced(1, 0, num_readers=2)
        with pytest.raises(ValueError, match="mutually exclusive"):
            ShardedProtocol(
                LuckyAtomicProtocol(config),
                ["hot"],
                mwmr=["hot"],
                leases=["hot"],
            )

    def test_unknown_lease_key_rejected(self):
        config = SystemConfig.balanced(1, 0, num_readers=2)
        with pytest.raises(ValueError, match="lease ids"):
            ShardedProtocol(
                LuckyAtomicProtocol(config), ["hot"], leases=["missing"]
            )

    def test_mixed_store_leases_one_key_mwmr_another(self):
        config = SystemConfig.balanced(1, 0, num_readers=2)
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            ["leased", "multi", "plain"],
            leases=["leased"],
            mwmr=["multi"],
        )
        store.write("leased", "a")
        store.read("leased", "r1")
        assert store.read("leased", "r1").rounds == 0
        store.write("multi", "b", client_id="r1")
        store.write("plain", "c")
        assert store.read("multi", "r2").value == "b"
        assert store.read("plain", "r2").value == "c"
        assert store.verify_atomic()


class TestLeaseCrashRecovery:
    def build_durable(self, lease_duration=40.0, policy=TimerPolicy.DEADLINE):
        config = SystemConfig.balanced(1, 0, num_readers=2)
        return ShardedSimStore(
            LuckyAtomicProtocol(config, timer_policy=policy),
            ["hot", "cold"],
            leases=["hot"],
            lease_duration=lease_duration,
            durable=True,
        )

    def test_crashed_granter_without_recovery_still_safe(self):
        store = build_store()
        store.write("hot", "v1")
        store.read("hot", "r1")
        store.crash("s1")
        # The remaining granters still withhold: the write revokes through
        # them and completes on the surviving quorum.
        write = store.write("hot", "v2")
        assert write.done
        assert store.read("hot", "r1").value == "v2"
        assert store.verify_atomic()

    def test_recovered_granter_grace_blocks_forgotten_lease_bypass(self):
        store = self.build_durable()
        store.write("hot", "v1")
        store.read("hot", "r1")
        assert store.read("hot", "r1").rounds == 0
        # A granter crashes mid-lease and recovers from its WAL: its lease
        # table is gone, so it must not acknowledge the write (grace) while
        # the surviving granters run the revocation.
        store.crash("s1")
        store.run_for(1.0)
        store.recover_server("s1")
        assert store.incarnation("s1") == 1
        write = store.write("hot", "v2")
        assert write.done
        read = store.read("hot", "r1")
        assert read.value == "v2"
        assert read.result.metadata.get("lease") is None  # not lease-served
        assert store.verify_atomic()

    def test_grace_follows_a_register_admitted_after_the_recovery(self):
        # r1 holds a lease on a key nobody ever wrote: the granters hold no
        # WAL record and no snapshot entry for it, so s1's recovery does not
        # admit it — the next PreWrite does, and must find s1 in grace exactly
        # as if the register had been rebuilt with the server.
        store = self.build_durable(lease_duration=40.0)
        store.read("hot", "r1")
        lease_read = store.read("hot", "r1")
        assert lease_read.rounds == 0 and lease_read.result.metadata["lease"] is True
        store.crash("s1")
        store.run_for(1.0)
        store.recover_server("s1")
        assert "hot" not in find_router(store.processes["s1"]).registers
        store.crash("s2")  # the write now needs s1's acknowledgement
        write = store.write("hot", "v1")
        # s3 remembers the lease and revokes it within a round trip; s1 forgot
        # it and stays silent for as long as it could still be believed.
        assert write.completed_at - write.invoked_at >= 40.0
        assert store.processes["s1"].inner.registers["hot"].in_grace is False
        read = store.read("hot", "r1")
        assert read.value == "v1" and read.result.metadata.get("lease") is None
        assert store.verify_atomic()

    def test_two_sequential_granter_recoveries_stay_atomic(self):
        # Both of the holder's other granters crash and recover one after the
        # other (never more than t=1 down at once).  Only one original
        # withholding granter remains; safety must rest on the recovered
        # servers' grace windows, not on their forgotten lease tables.
        store = self.build_durable(lease_duration=30.0)
        store.write("hot", "v1")
        store.read("hot", "r1")
        for server_id in ("s1", "s2"):
            store.crash(server_id)
            store.run_for(1.0)
            store.recover_server(server_id)
        write = store.write("hot", "v2")
        assert write.done
        assert store.read("hot", "r1").value == "v2"
        assert store.verify_atomic()
        store.run_until_quiescent()

    @pytest.mark.parametrize(
        "policy",
        [TimerPolicy.WAIT, TimerPolicy.DEADLINE],
        ids=["paper_faithful", "deadline"],
    )
    def test_holder_fences_recovered_granter_by_epoch(self, policy):
        store = self.build_durable(policy=policy)
        store.write("hot", "v1")
        store.read("hot", "r1")
        reader = store.processes["r1"].registers["hot"]
        assert reader.lease_held
        # Paper-faithful, all three grants landed while the read sat out its
        # timer; under the deadline the lease activated on S - t = 2 of them
        # and the third lands on the active lease during the crash window.
        assert len(reader.lease.held.grants) == (3 if policy is TimerPolicy.WAIT else 2)
        store.crash("s1")
        store.run_for(1.0)
        store.recover_server("s1")
        # The holder still holds (S - t = 2 clean granters remain)...
        assert reader.lease_held and len(reader.lease.held.grants) == 3
        # ... until it hears *anything* from the recovered incarnation, which
        # voids s1's grant; with s2 and s3 still granted the quorum holds.
        from repro.core.messages import ReadAck

        reader.handle_message(ReadAck(sender="s1", read_ts=99, round=1, epoch=1))
        assert reader.lease_held  # 2 of 3 grants remain = S - t
        reader.handle_message(ReadAck(sender="s2", read_ts=99, round=1, epoch=1))
        assert not reader.lease_held  # forged/observed epoch breaks the quorum


class TestLeasedAsyncCluster:
    def test_lease_lifecycle_in_memory(self):
        async def scenario():
            config = SystemConfig.balanced(1, 0, num_readers=2)
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config),
                ["hot", "cold"],
                leases=["hot"],
                lease_duration=2000.0,
            ) as cluster:
                await cluster.write("hot", "v1")
                first = await cluster.read("hot", "r1")
                assert first.rounds == 1
                leased = await cluster.read("hot", "r1")
                assert leased.rounds == 0 and leased.metadata["lease"] is True
                await cluster.write("hot", "v2")
                fallback = await cluster.read("hot", "r1")
                assert fallback.value == "v2"
                again = await cluster.read("hot", "r1")
                assert again.value == "v2" and again.rounds == 0
                result = check_atomicity(cluster.history("hot"))
                assert result.ok and result.lease_reads >= 2

        asyncio.run(scenario())

    def test_closed_loop_reader_acquires_without_batching(self):
        # Regression (asyncio side): on the single-register cluster every
        # message is its own delivery, so a read that returns on the reply
        # that makes it fast is re-invoked before any LeaseGrant is handled.
        # The fallback reads used to supersede that in-flight acquisition one
        # after the other and the lease never activated.
        from repro.lease import LeasedLuckyProtocol
        from repro.runtime.cluster import AsyncCluster

        config = SystemConfig.balanced(1, 0, num_readers=2)

        async def scenario(cluster):
            await cluster.write("v1")
            reads = [await cluster.read("r1") for _ in range(8)]
            return reads, cluster.history()

        reads, history = AsyncCluster.run_scenario(
            LeasedLuckyProtocol(LuckyAtomicProtocol(config), lease_duration=5000.0),
            scenario,
        )
        assert all(read.value == "v1" for read in reads)
        assert reads[0].rounds >= 1
        assert reads[-1].rounds == 0 and reads[-1].metadata["lease"] is True
        result = check_atomicity(history)
        assert result.ok and result.lease_reads >= 4

    def test_restart_mid_lease_durable(self, tmp_path):
        async def scenario():
            config = SystemConfig.balanced(1, 0, num_readers=2)
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config),
                ["hot"],
                leases=["hot"],
                lease_duration=2000.0,
                durable=True,
                wal_dir=str(tmp_path),
            ) as cluster:
                await cluster.write("hot", "v1")
                await cluster.read("hot", "r1")
                leased = await cluster.read("hot", "r1")
                assert leased.rounds == 0
                # A granter crashes mid-lease and restarts from its files: it
                # rejoins under a bumped incarnation, in its grace window.
                cluster.crash_server("s1")
                await asyncio.sleep(0.01)
                node = await cluster.restart_server("s1")
                assert node.automaton.incarnation == 1
                write = await cluster.write("hot", "v2")
                assert write.value == "v2"
                fallback = await cluster.read("hot", "r1")
                assert fallback.value == "v2"
                assert fallback.metadata.get("lease") is None
                result = check_atomicity(cluster.history("hot"))
                assert result.ok and result.lease_reads >= 1

        asyncio.run(scenario())

    def test_leased_reads_over_tcp(self):
        async def scenario():
            config = SystemConfig.balanced(1, 0, num_readers=2)
            async with sharded_tcp_cluster(
                LuckyAtomicProtocol(config),
                ["hot"],
                leases=["hot"],
                lease_duration=2000.0,
            ) as cluster:
                await cluster.write("hot", "v1")
                await cluster.read("hot", "r1")
                leased = await cluster.read("hot", "r1")
                assert leased.rounds == 0 and leased.metadata["lease"] is True
                await cluster.write("hot", "v2")
                assert (await cluster.read("hot", "r1")).value == "v2"
                assert check_atomicity(cluster.history("hot")).ok

        asyncio.run(scenario())
