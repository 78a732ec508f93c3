"""Crash-recovery integration: durable servers rejoin from their WALs.

The headline scenario the paper's fault model cannot express: a run whose
*total* number of distinct server crashes exceeds the resilience bound ``t``,
yet at most ``t`` servers are ever down simultaneously because crashed servers
recover from their write-ahead logs between outages — and the register stays
atomic throughout.
"""

import pytest

from repro.baselines.abd import ABDProtocol
from repro.baselines.slow_robust import SlowRobustProtocol
from repro.bench.sweeps import dense_run, recovery_sweep, run
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import INITIAL_PAIR, TimestampValue
from repro.persist.durable import storage_registers
from repro.persist.snapshot import SnapshotCorruptError
from repro.persist.wal import decode_frames
from repro.sim.cluster import SimCluster
from repro.sim.failures import FailureSchedule
from repro.store.sim import ShardedSimStore
from repro.variants.regular import RegularStorageProtocol
from repro.variants.trading import TradingReadsProtocol, TradingWritesProtocol
from repro.variants.two_round import TwoRoundWriteProtocol
from repro.verify.atomicity import check_atomicity
from repro.workload.generator import keyspace_workload, run_workload


CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0)


def rolling_schedule():
    """Three outages, one per server: 3 total crashes > t=1, never 2 at once."""
    return (
        FailureSchedule()
        .crash("s1", at=5.0, recover_at=15.0)
        .crash("s2", at=25.0, recover_at=35.0)
        .crash("s3", at=45.0, recover_at=55.0)
    )


class TestAtomicityAcrossRecoveries:
    def test_more_total_crashes_than_t_stays_atomic(self):
        """The acceptance scenario: > t distinct crashes, <= t simultaneous."""
        schedule = rolling_schedule()
        assert schedule.total_crashes(CONFIG.server_ids()) > CONFIG.t
        assert schedule.max_simultaneous_faulty(CONFIG.server_ids()) <= CONFIG.t
        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
        )
        for index in range(12):
            write = cluster.write(f"v{index}")
            assert write.done
            read = cluster.read("r1")
            assert read.value == f"v{index}"
        cluster.run_until_quiescent()
        result = check_atomicity(cluster.history())
        assert result.ok, result.violations
        assert all(cluster.incarnation(sid) == 1 for sid in CONFIG.server_ids())

    def test_recovered_server_rejoins_with_pre_crash_state(self):
        schedule = FailureSchedule().crash("s1", at=5.0, recover_at=30.0)
        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
        )
        write = cluster.write("before-crash")  # completes well before t=5
        assert write.done
        cluster.run_for(10.0)  # the crash happens; s1 is down
        pre_crash_pw = storage_registers(cluster.server("s1"))[""].pw
        cluster.run_for(25.0)  # past the recovery
        recovered_pw = storage_registers(cluster.server("s1"))[""].pw
        assert recovered_pw == pre_crash_pw
        assert recovered_pw.val == "before-crash"
        assert cluster.incarnation("s1") == 1
        # And the recovered replica participates in quorums again.
        cluster.write("after-recovery")
        assert cluster.read("r1").value == "after-recovery"
        assert check_atomicity(cluster.history()).ok

    def test_writes_progress_during_each_outage(self):
        """Operations invoked while a server is down still complete (S - t quorum)."""
        schedule = rolling_schedule()
        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
        )
        for start in (6.0, 26.0, 46.0):  # inside each outage window
            if start > cluster.now:
                cluster.run_for(start - cluster.now)
            write = cluster.write(f"during-{start}")
            assert write.done
        cluster.run_until_quiescent()
        assert check_atomicity(cluster.history()).ok

    def test_manual_crash_then_recover_revives_the_server(self):
        """cluster.crash() + recover_server() must actually end the outage."""
        cluster = SimCluster(LuckyAtomicProtocol(CONFIG), durable=True)
        cluster.write("v0")
        cluster.crash("s1")
        cluster.write("v1")  # completes on the s2+s3 quorum
        assert cluster.is_crashed("s1")
        cluster.recover_server("s1")
        assert not cluster.is_crashed("s1")
        at_recovery = cluster.trace.delivered.copy()
        cluster.write("v2")
        cluster.run_until_quiescent()
        # The revived server receives traffic again and its state advances.
        since = cluster.trace.delivered - at_recovery
        assert any(destination == "s1" for _, destination, _ in since), (
            "no message reached s1 after its manual recovery"
        )
        assert storage_registers(cluster.server("s1"))[""].pw.val == "v2"
        assert cluster.incarnation("s1") == 1
        assert check_atomicity(cluster.history()).ok

    def test_manual_recovery_cancels_the_scheduled_one(self):
        """A window closed early must not fire its original recovery event.

        The stale event would drop the *live* incarnation's WAL tail (records
        whose acks were already quorum-counted) and bump the incarnation a
        second time."""
        schedule = FailureSchedule().crash("s1", at=5.0, recover_at=40.0, lose_tail=2)
        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
        )
        cluster.write("v1")
        cluster.run_for(10.0)  # the crash at t=5 has happened
        cluster.recover_server("s1")  # manual recovery, well before t=40
        assert cluster.incarnation("s1") == 1
        cluster.write("v2")
        records_after_manual = cluster.server("s1").wal.record_count
        cluster.run_for(60.0)  # past the originally scheduled recovery at t=40
        assert cluster.incarnation("s1") == 1  # the stale event did not fire
        assert cluster.server("s1").wal.record_count >= records_after_manual
        cluster.write("v3")
        cluster.run_until_quiescent()
        assert storage_registers(cluster.server("s1"))[""].pw.val == "v3"
        assert check_atomicity(cluster.history()).ok

    def test_sharded_store_recovers_on_the_default_schedule(self):
        """The store surface crashes and recovers through the same schedule."""
        store = ShardedSimStore(LuckyAtomicProtocol(CONFIG), ["k1", "k2"], durable=True)
        store.write("k1", "v0")
        store.crash("s1")
        store.write("k2", "v1")
        store.recover_server("s1")
        at_recovery = store.trace.delivered.copy()
        store.write("k1", "v2")
        assert store.read("k2").value == "v1"
        store.run_until_quiescent()
        since = store.trace.delivered - at_recovery
        assert any(destination == "s1" for _, destination, _ in since)
        assert store.incarnation("s1") == 1
        assert store.verify_atomic()

    def test_snapshot_compaction_mid_run(self):
        schedule = FailureSchedule().crash("s1", at=40.0, recover_at=50.0)
        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
            compact_every=4,
        )
        for index in range(10):
            cluster.write(f"v{index}")
        cluster.run_for(60.0)
        assert cluster.disks["s1"].read("s1.snapshot") is not None
        # Recovery went through snapshot + suffix replay, not just the log.
        assert cluster.incarnation("s1") == 1
        cluster.write("final")
        assert cluster.read("r1").value == "final"
        assert check_atomicity(cluster.history()).ok


SUITES_AT_T1_B0 = {
    "lucky-atomic": lambda: LuckyAtomicProtocol(SystemConfig.balanced(t=1, b=0)),
    "abd": lambda: ABDProtocol(SystemConfig.balanced(t=1, b=0)),
    "slow-robust": lambda: SlowRobustProtocol(SystemConfig.balanced(t=1, b=0)),
    "trading-reads": lambda: TradingReadsProtocol.for_parameters(t=1, b=0),
    "trading-writes": lambda: TradingWritesProtocol.for_parameters(t=1, b=0),
    "two-round-write": lambda: TwoRoundWriteProtocol.for_parameters(t=1, b=0, fr=1),
    "regular": lambda: RegularStorageProtocol.for_parameters(t=1, b=0),
}


class TestRecoveryReadsBytes:
    """A simulated recovery reads the server's files on its disk, and only
    them: the new incarnation shares no object with the crashed one."""

    def compacted_cluster(self):
        cluster = SimCluster(LuckyAtomicProtocol(CONFIG), durable=True, compact_every=2)
        for index in range(4):
            cluster.write(f"v{index}")
        cluster.run_until_quiescent()
        return cluster

    def test_a_flipped_snapshot_byte_refuses_the_recovery(self):
        cluster = self.compacted_cluster()
        disk = cluster.disks["s1"]
        data = bytearray(disk.read("s1.snapshot"))
        data[len(data) // 2] ^= 0x01
        disk.write_atomically("s1.snapshot", bytes(data))
        cluster.crash("s1")
        with pytest.raises(SnapshotCorruptError):
            cluster.recover_server("s1")

    def test_the_recovered_incarnation_opens_a_new_snapshot_store(self):
        cluster = self.compacted_cluster()
        crashed = cluster.server("s1").snapshots.store
        assert crashed._chunks
        cluster.crash("s1")
        cluster.recover_server("s1")
        recovered = cluster.server("s1").snapshots.store
        assert recovered is not crashed and recovered._chunks == {}
        assert storage_registers(cluster.server("s1"))[""].pw.val == "v3"


    def test_a_lost_tail_rewinds_exactly_its_records(self):
        """``lose_tail=N`` tears the last N synced records off the crashed
        incarnation's log: the recovered log holds N fewer, and the register
        whose last write they were holds the pairs from before that write."""
        store = ShardedSimStore(LuckyAtomicProtocol(CONFIG), ["k1", "k2"], durable=True)
        for key, value in (("k1", "a"), ("k2", "b"), ("k1", "c")):
            store.write(key, value)  # lucky: one PW round, w trails one write
        store.run_until_quiescent()
        wal = store.disks["s1"].files["s1.wal"]
        synced, _ = decode_frames(bytes(wal.data[: wal.synced]))
        assert [(r.register_id, r.field, r.ts) for r in synced[-2:]] == [
            ("k1", "pw", 2),  # "c"
            ("k1", "w", 1),  # "a", which the PW of "c" carried
        ]
        store.crash("s1")
        store.recover_server("s1", lose_tail=2)
        recovered = store.server("s1")
        assert recovered.wal.record_count == len(synced) - 2
        registers = storage_registers(recovered)
        assert (registers["k1"].pw, registers["k1"].w) == (TimestampValue(1, "a"), INITIAL_PAIR)
        assert registers["k2"].pw == TimestampValue(1, "b")


class TestEverySuiteLogsWhatItAcknowledged:
    """Two servers are crashed and recovered one at a time, then the third
    crashes: the read is served by the two recovered servers alone, so it
    returns the write only if their logs held it — whatever the suite calls
    its server's state."""

    @pytest.mark.parametrize("name", sorted(SUITES_AT_T1_B0))
    def test_rolling_recoveries_keep_the_write(self, name):
        cluster = SimCluster(SUITES_AT_T1_B0[name](), durable=True)
        assert cluster.write("v1").done
        cluster.run_until_quiescent()
        assert all(cluster.server(sid).wal.record_count > 0 for sid in ("s1", "s2", "s3"))
        for server_id in ("s1", "s2"):
            cluster.crash(server_id)
            cluster.recover_server(server_id)
        cluster.crash("s3")
        assert cluster.read("r1").value == "v1"
        result = check_atomicity(cluster.history())
        assert result.ok, result.violations


class TestStaleEpochRejection:
    """The fence is the receiver's: an acknowledgement of a superseded
    incarnation is rejected once the *receiver* has seen a later one."""

    def test_pre_crash_ack_is_admitted_until_the_new_incarnation_is_heard(self):
        """An ack in flight across its sender's crash+recovery reaches a
        client that has heard nothing from the new incarnation: no real
        process could tell it is stale, so it is delivered and counted — and
        under fsync-before-ack what it acknowledges survived the crash."""
        schedule = FailureSchedule().crash("s1", at=1.5, recover_at=1.8)
        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
        )
        # PW arrives at the servers at t=1; their acks (sent at t=1, epoch 0)
        # arrive at t=2 — after s1 recovered at t=1.8 under incarnation 1.
        write = cluster.start_write("v1")
        cluster.run(until=lambda: write.done)
        assert cluster.incarnation("s1") == 1
        assert not [key for key in cluster.trace.dropped if key[2] == "stale-epoch"]
        # The only s1 -> w message is the ack the first incarnation sent at t=1.
        s1_to_writer = {
            kind: count
            for (source, destination, kind), count in cluster.trace.delivered.items()
            if (source, destination) == ("s1", "w")
        }
        assert s1_to_writer == {"PreWriteAck": 1}
        assert write.fast
        # The ack is true: its record was in the log before it left.
        assert storage_registers(cluster.server("s1"))[""].pw.val == "v1"
        cluster.run_until_quiescent()
        assert cluster.read("r1").value == "v1"
        assert check_atomicity(cluster.history()).ok

    def test_pre_crash_acks_are_dropped_after_recovery(self):
        """The same ack arriving *after* any message of the new incarnation
        must not be counted by a pending operation: the recovered state (torn
        tail) may not cover what was acknowledged."""
        schedule = FailureSchedule().crash("s1", at=1.5, recover_at=1.8, lose_tail=10)

        def crawl(source, destination, message, now):
            # s1's pre-crash ack (sent at t=1) lands at t=20.
            return 19.0 if source == "s1" and now < 1.5 else None

        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
            message_filter=crawl,
        )
        assert cluster.write("v1").done  # on the other servers' quorum
        # s1's recovered state was rewound by the lost tail: it must not claim
        # the pre-write it acknowledged before crashing.
        assert storage_registers(cluster.server("s1"))[""].pw.val != "v1"
        cluster.write("v2")  # s1 acknowledges under epoch 1: the writer has heard
        cluster.run_until_quiescent()
        stale = {key: n for key, n in cluster.trace.dropped.items() if key[2] == "stale-epoch"}
        assert stale == {("s1", "w", "stale-epoch"): 1}
        assert check_atomicity(cluster.history()).ok

    def test_new_incarnation_acks_are_accepted(self):
        schedule = FailureSchedule().crash("s1", at=2.0, recover_at=6.0)
        cluster = SimCluster(
            LuckyAtomicProtocol(CONFIG),
            failures=schedule,
            durable=True,
        )
        cluster.run_for(8.0)
        after_recovery = cluster.trace.delivered.copy()
        cluster.write("post-recovery")
        since = cluster.trace.delivered - after_recovery
        assert any(source == "s1" for source, _, _ in since), (
            "the recovered incarnation's replies must flow"
        )


class TestShardedDurableStore:
    def test_keyspace_workload_across_recoveries(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        schedule = (
            FailureSchedule()
            .crash("s1", at=10.0, recover_at=30.0)
            .crash("s2", at=50.0, recover_at=70.0)
        )
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            ["k1", "k2", "k3"],
            failures=schedule,
            durable=True,
        )
        workload = keyspace_workload(
            80, store.keys, config.reader_ids(), mean_gap=1.5, seed=7
        )
        run_workload(store, workload)
        assert store.verify_atomic()
        assert schedule.total_crashes(config.server_ids()) > config.t
        assert store.incarnation("s1") == 1
        assert store.incarnation("s2") == 1
        assert store.wal_records > 0


class TestRecoverySweep:
    def test_s4_phases_and_overhead(self):
        table = recovery_sweep(num_shards=3, num_operations=72, t=2)
        rows = {(row["scenario"], row["phase"]): row for row in table.rows}
        assert set(rows) == {
            ("wal-off", "steady"),
            ("wal-on", "steady"),
            ("crash-recover", "healthy"),
            ("crash-recover", "outage"),
            ("crash-recover", "recovered"),
        }
        # Virtual-time throughput is durability-blind: WAL on == WAL off.
        assert rows[("wal-on", "steady")]["throughput"] == pytest.approx(
            rows[("wal-off", "steady")]["throughput"]
        )
        # During an outage of t servers the fast-write quorum S - fw is
        # unreachable, so some operations fall back to slow rounds.
        assert rows[("crash-recover", "outage")]["fast_fraction"] < 1.0
        assert (
            rows[("crash-recover", "outage")]["mean_latency"]
            > rows[("wal-on", "steady")]["mean_latency"]
        )
        # After the last recovery the store catches back up to fast operation.
        assert rows[("crash-recover", "recovered")]["fast_fraction"] == pytest.approx(1.0)
        total_ops = sum(
            rows[("crash-recover", phase)]["operations"]
            for phase in ("healthy", "outage", "recovered")
        )
        assert total_ops == 72
        assert table.experiment_id == "S4"
        # No cell of the table reads a wall clock.
        assert "wall_ms" not in table.columns

    @pytest.mark.parametrize("durable", [False, True])
    def test_dense_run_verifies_histories_and_logs_iff_durable(self, durable):
        store = run(dense_run(2, num_operations=24, t=1, durable=durable))
        assert len(store.completed_operations()) == 24
        assert (store.wal_records > 0) == durable


class TestRecoveryGuards:
    def test_recovery_schedule_requires_durable_cluster(self):
        schedule = FailureSchedule().crash("s1", at=1.0, recover_at=2.0)
        with pytest.raises(ValueError, match="durable"):
            SimCluster(LuckyAtomicProtocol(CONFIG), failures=schedule)

    def test_client_recovery_is_rejected(self):
        schedule = FailureSchedule().crash("r1", at=1.0, recover_at=2.0)
        with pytest.raises(ValueError, match="client"):
            SimCluster(LuckyAtomicProtocol(CONFIG), failures=schedule, durable=True)

    def test_manual_recover_requires_durable(self):
        cluster = SimCluster(LuckyAtomicProtocol(CONFIG))
        with pytest.raises(ValueError, match="durable"):
            cluster.recover_server("s1")

    def test_permanent_crashes_still_bounded_by_t(self):
        # Two *permanent* crashes exceed t=1 even under a recovery schedule.
        schedule = FailureSchedule().crash("s1", at=1.0).crash("s2", at=2.0)
        with pytest.raises(ValueError, match="simultaneously"):
            SimCluster(LuckyAtomicProtocol(CONFIG), failures=schedule, durable=True)

    def test_plain_schedule_validation_unchanged(self):
        failures = FailureSchedule().crash("s1", at=0.0).crash("s2", at=0.0)
        with pytest.raises(ValueError):
            SimCluster(LuckyAtomicProtocol(CONFIG), failures=failures)
