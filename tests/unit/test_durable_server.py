"""Unit tests of the durability wrapper and server state export/restore."""

import random
from collections import Counter

import pytest

from repro.core.config import SystemConfig
from repro.core.automaton import Automaton, Effects
from repro.core.messages import PreWrite, Read, TimestampQuery, Write, WriteAck
from repro.core.server import StorageServer
from repro.core.types import INITIAL_PAIR, TimestampValue
from repro.persist.disk import MemoryDisk
from repro.persist.durable import (
    DurableServer,
    export_server_state,
    make_durable,
    replay_records,
    restore_server_state,
    storage_registers,
)
from repro.persist.snapshot import FileSnapshot, SnapshotCorruptError, SnapshotManager
from repro.persist.wal import WalRecord, WriteAheadLog, encode_frame, tear_tail
from repro.store.sharding import ShardedProtocol
from repro.core.protocol import LuckyAtomicProtocol


CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0)


def pair(ts, value=None, writer_id=""):
    return TimestampValue(ts, f"v{ts}" if value is None else value, writer_id)


def memory_log():
    return WriteAheadLog("s1.wal", disk=MemoryDisk())


def reopen(disk):
    """The next incarnation of ``s1`` from the files on *disk*."""
    return make_durable(StorageServer("s1", CONFIG), "", disk=disk)


class TestExportRestore:
    def test_round_trip(self):
        server = StorageServer("s1", CONFIG)
        server.handle_message(PreWrite(sender="w", ts=2, pw=pair(2), w=pair(1)))
        server.handle_message(Read(sender="r1", read_ts=3, round=2))
        state = server.export_state()
        restored = StorageServer("s1", CONFIG)
        restored.restore_state(state)
        assert restored.pw == server.pw
        assert restored.w == server.w
        assert restored.vw == server.vw
        assert restored.read_ts == server.read_ts
        assert restored.frozen == server.frozen

    def test_restore_is_monotone(self):
        server = StorageServer("s1", CONFIG)
        server.handle_message(Write(sender="w", round=3, ts=5, pair=pair(5)))
        old_state = {"pw": pair(1), "w": pair(1), "vw": pair(1)}
        server.restore_state(old_state)
        # A stale snapshot never regresses fresher state.
        assert server.pw == pair(5)
        assert server.vw == pair(5)

    def test_restore_is_idempotent(self):
        state = {"pw": pair(3), "w": pair(2), "vw": pair(1)}
        server = StorageServer("s1", CONFIG)
        server.restore_state(state)
        snapshot = server.export_state()
        server.restore_state(state)
        assert server.export_state() == snapshot


class TestStorageRegisters:
    def test_single_register_server(self):
        server = StorageServer("s1", CONFIG)
        assert storage_registers(server) == {"": server}

    def test_sharded_server_expands_per_register(self):
        suite = ShardedProtocol(LuckyAtomicProtocol(CONFIG), ["k1", "k2", "k3"])
        server = suite.create_server("s1")
        assert storage_registers(server) == {}  # nobody asked for one yet
        for key in ("k1", "k2"):
            server.handle_message(Read(sender="r1", register_id=key, read_ts=1, round=1))
        registers = storage_registers(server)
        assert sorted(registers) == ["k1", "k2"]
        assert all(isinstance(inner, StorageServer) for inner in registers.values())

    def test_sharded_export_restore_round_trip(self):
        suite = ShardedProtocol(LuckyAtomicProtocol(CONFIG), ["k1", "k2"])
        server = suite.create_server("s1")
        server.handle_message(
            Write(sender="w", register_id="k2", round=2, ts=4, pair=pair(4))
        )
        state = export_server_state(server)
        fresh = suite.create_server("s1")
        restore_server_state(fresh, state)
        # Recovery admits what the snapshot names; k1 was never asked about.
        assert list(storage_registers(fresh)) == ["k2"]
        assert storage_registers(fresh)["k2"].pw == pair(4)


class TestDurableServer:
    def test_prewrite_logs_changed_fields(self):
        wal = memory_log()
        durable = DurableServer(StorageServer("s1", CONFIG), wal)
        durable.handle_message(PreWrite(sender="w", ts=1, pw=pair(1), w=INITIAL_PAIR))
        records = wal.replay()
        assert [(r.field, r.ts) for r in records] == [("pw", 1)]

    def test_write_round3_logs_all_three_fields(self):
        wal = memory_log()
        durable = DurableServer(StorageServer("s1", CONFIG), wal)
        durable.handle_message(Write(sender="w", round=3, ts=2, pair=pair(2)))
        assert sorted(r.field for r in wal.replay()) == ["pw", "vw", "w"]
        # One message = one batch-grouped append (= one fsync on a file WAL).
        assert wal.batches_appended == 1

    def test_reads_and_queries_log_nothing(self):
        wal = memory_log()
        durable = DurableServer(StorageServer("s1", CONFIG), wal)
        durable.handle_message(Read(sender="r1", read_ts=1, round=1))
        durable.handle_message(TimestampQuery(sender="w", op_id=1))
        assert wal.record_count == 0

    def test_stale_update_logs_nothing(self):
        wal = memory_log()
        durable = DurableServer(StorageServer("s1", CONFIG), wal)
        durable.handle_message(Write(sender="w", round=2, ts=5, pair=pair(5)))
        appended = wal.record_count
        durable.handle_message(Write(sender="w", round=2, ts=3, pair=pair(3)))
        assert wal.record_count == appended

    def test_effects_pass_through_unstamped_at_incarnation_zero(self):
        durable = DurableServer(StorageServer("s1", CONFIG), memory_log())
        effects = durable.handle_message(Read(sender="r1", read_ts=1, round=1))
        assert effects.sends[0].message.epoch == 0

    def test_recovered_incarnation_stamps_epochs(self):
        disk = MemoryDisk()
        reopen(disk).handle_message(Write(sender="w", round=2, ts=2, pair=pair(2)))
        recovered = reopen(disk)
        assert recovered.incarnation == 1
        effects = recovered.handle_message(Read(sender="r1", read_ts=1, round=1))
        ack = effects.sends[0].message
        assert ack.epoch == 1
        assert ack.pw == pair(2)  # the replayed pre-crash state

    def test_recovered_incarnation_keeps_timers_and_cancels(self):
        class TimerServer(Automaton):
            def handle_message(self, message):
                effects = Effects()
                effects.send(message.sender, WriteAck(sender=self.process_id))
                effects.start_timer("t", 1.0)
                effects.cancel_timer("t")
                return effects

        durable = DurableServer(TimerServer("s1"), memory_log(), incarnation=1)
        effects = durable.handle_message(Read(sender="r1"))
        assert [send.message.epoch for send in effects.sends] == [1]
        assert [timer.timer_id for timer in effects.timers] == ["t"]
        assert effects.cancels == ["t"]

    def test_recovered_incarnation_keeps_the_advance_report(self):
        # A layer outside the durable wrapper still sees what advanced.
        message = Write(sender="w", round=3, ts=2, pair=pair(2))
        advanced = StorageServer("s1", CONFIG).handle_message(message).advanced
        durable = DurableServer(StorageServer("s1", CONFIG), memory_log(), incarnation=1)
        assert len(advanced) == 3
        assert durable.handle_message(message).advanced == advanced

    def test_sharded_durable_tags_records_with_register(self):
        suite = ShardedProtocol(LuckyAtomicProtocol(CONFIG), ["k1", "k2"])
        wal = memory_log()
        durable = DurableServer(suite.create_server("s1"), wal)
        durable.handle_message(
            Write(sender="w", register_id="k2", round=2, ts=1, pair=pair(1))
        )
        assert {r.register_id for r in wal.replay()} == {"k2"}
        assert durable.batching  # sharded processes batch; the wrapper forwards it

    def test_unknown_register_ids_leave_no_mark(self):
        # Register ids are peer-supplied; reads write no WAL record, so no
        # compaction would ever clear what they marked.
        suite = ShardedProtocol(LuckyAtomicProtocol(CONFIG), ["k1"])
        wal = memory_log()
        durable = DurableServer(suite.create_server("s1"), wal)
        for index in range(2000):
            effects = durable.handle_message(
                Read(sender="r1", register_id=f"unknown-{index}", read_ts=1, round=1)
            )
            assert effects.empty
            durable.on_timer(f"unknown-{index}::lease/grace")
        assert durable._touched == set()
        durable.handle_message(Read(sender="r1", register_id="k1", read_ts=1, round=1))
        durable.on_timer("k1::lease/grace")
        assert durable._touched == {"k1"}
        assert list(storage_registers(durable)) == ["k1"] and wal.record_count == 0

    def test_append_batch_groups_records_into_one_fsync(self):
        wal = memory_log()
        durable = DurableServer(StorageServer("s1", CONFIG), wal)
        with durable.append_batch():
            durable.handle_message(Write(sender="w", round=2, ts=1, pair=pair(1)))
            durable.handle_message(Write(sender="w", round=2, ts=2, pair=pair(2)))
            assert wal.record_count == 0  # nothing durable until the scope closes
        # Two messages, four records (pw + w each), ONE batch-grouped append.
        assert wal.batches_appended == 1
        assert wal.record_count == 4

    def test_append_batch_nests_flat(self):
        wal = memory_log()
        durable = DurableServer(StorageServer("s1", CONFIG), wal)
        with durable.append_batch():
            with durable.append_batch():
                durable.handle_message(Write(sender="w", round=2, ts=1, pair=pair(1)))
            assert wal.record_count == 0  # inner scope defers to the outer one
        assert wal.batches_appended == 1

    def test_compaction_through_snapshot_manager(self):
        disk = MemoryDisk()
        wal = WriteAheadLog("s1.wal", disk=disk)
        store = FileSnapshot("s1.snapshot", disk=disk)
        inner = StorageServer("s1", CONFIG)
        durable = DurableServer(
            inner, wal, snapshots=SnapshotManager(store, wal, compact_every=4)
        )
        for ts in range(1, 6):
            durable.handle_message(Write(sender="w", round=3, ts=ts, pair=pair(ts)))
        assert store.load() is not None
        # Snapshot + suffix replay reproduces the live state.
        fresh = StorageServer("s1", CONFIG)
        restore_server_state(fresh, store.load())
        replay_records(fresh, wal.replay())
        assert (fresh.pw, fresh.w, fresh.vw) == (inner.pw, inner.w, inner.vw)

    def test_recovery_after_lost_tail_rewinds_state(self):
        disk = MemoryDisk()
        durable = reopen(disk)
        durable.handle_message(Write(sender="w", round=2, ts=1, pair=pair(1)))
        durable.handle_message(Write(sender="w", round=2, ts=2, pair=pair(2)))
        tear_tail(disk, "s1.wal", 2)  # the ts=2 batch (pw + w records) never reached its fsync
        recovered = reopen(disk)
        assert storage_registers(recovered)[""].pw == pair(1)


class TestMakeDurable:
    def test_snapshot_plus_suffix(self):
        disk = MemoryDisk()
        FileSnapshot("s1.snapshot", disk=disk).save(
            {"": {"pw": pair(3), "w": pair(3), "vw": pair(3)}}
        )
        WriteAheadLog("s1.wal", disk=disk).append(
            [
                # A record *older* than the snapshot (replayed harmlessly) and
                # a newer one (the suffix that must win).
                WalRecord(register_id="", field="pw", ts=2, writer_id="", value="v2"),
                WalRecord(register_id="", field="pw", ts=5, writer_id="", value="v5"),
            ]
        )
        disk.write_atomically("s1.epoch", b"1")
        recovered = reopen(disk)
        inner = storage_registers(recovered)[""]
        assert inner.pw == pair(5)
        assert inner.w == pair(3)
        assert recovered.incarnation == 2
        assert disk.read("s1.epoch") == b"2"

    def test_corrupt_snapshot_refuses_to_start_instead_of_forgetting(self, tmp_path):
        """The WAL a snapshot superseded was truncated when the snapshot was
        written, so "corrupt reads as no snapshot" recovers ``<0, ⊥>`` after
        ts 5 was acknowledged.  Refusing to start is a crash, which ``t``
        covers; forgetting acknowledged state is not in the failure model."""
        first = make_durable(StorageServer("s1", CONFIG), str(tmp_path), compact_every=4)
        for ts in range(1, 6):
            first.handle_message(PreWrite(sender="w", ts=ts, pw=pair(ts), w=pair(ts - 1)))
        assert first.snapshots.compactions == 2
        first.wal.close()
        path = tmp_path / "s1.snapshot"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            make_durable(StorageServer("s1", CONFIG), str(tmp_path), compact_every=4)
        # A *missing* snapshot is still "none taken yet": the log replays.
        path.unlink()
        recovered = make_durable(StorageServer("s1", CONFIG), str(tmp_path), compact_every=4)
        assert recovered.incarnation == 1
        recovered.wal.close()

    def test_first_start_on_an_empty_disk(self):
        disk = MemoryDisk()
        first = make_durable(StorageServer("s1", CONFIG), "", compact_every=None, disk=disk)
        assert first.incarnation == 0 and first.snapshots is None
        assert storage_registers(first)[""].pw == INITIAL_PAIR
        assert disk.read("s1.epoch") == b"0" and disk.read("s1.snapshot") is None


KEYSPACE = [f"k{index:03d}" for index in range(200)]
COMPACT_EVERY = 8


def open_sharded(disk):
    """The next incarnation of a sharded ``s1`` on *disk* that holds every key
    of KEYSPACE: its snapshot outweighs many appends."""
    server = ShardedProtocol(LuckyAtomicProtocol(CONFIG), KEYSPACE).create_server("s1")
    durable = make_durable(server, "", compact_every=COMPACT_EVERY, disk=disk)
    for key in KEYSPACE:
        assert server.ensure_register(key) is not None
    return durable


def prewrite(durable, key, ts, value=None):
    """One PW: a ``pw`` record, and a ``w`` record once *ts* > 1."""
    durable.handle_message(
        PreWrite(sender="w", register_id=key, ts=ts, pw=pair(ts, value), w=pair(ts - 1, value))
    )


def compaction_checks(durable):
    """Every compaction check *durable* makes from now on, as ``(records, log
    bytes, snapshot bytes, compacted)``: the files as the append left them,
    read off the disk, and what the check decided."""
    manager, checks = durable.snapshots, []
    disk, check = manager.store.disk, manager.maybe_compact

    def recording(delta):
        files = (len(disk.read(manager.wal.path)), len(disk.read(manager.store.path) or b""))
        checks.append((manager.wal.record_count, *files, check(delta)))
        return checks[-1][-1]

    manager.maybe_compact = recording
    return checks


class TestCompactionTrigger:
    """A compaction rewrites the whole state, so it waits until the log holds
    ``compact_every`` records *and* at least as many bytes as the last
    snapshot file."""

    def test_a_log_lighter_than_the_snapshot_is_not_compacted(self):
        durable = open_sharded(MemoryDisk())
        checks = compaction_checks(durable)
        for ts in range(1, 400):
            prewrite(durable, "k000", ts)
            if durable.snapshots.compactions == 3:
                break
        assert durable.snapshots.compactions == 3
        assert checks[0][:2] == (1, len(encode_frame(WalRecord("k000", "pw", 1, "", "v1"))))
        for records, log, snapshot, compacted in checks:
            assert compacted == (records >= COMPACT_EVERY and log >= snapshot)
        # The first snapshot (after COMPACT_EVERY records: there was none
        # before it) holds 200 registers; the logs after it pass the record
        # floor long before they weigh as much.
        waited = [check for check in checks if check[0] >= COMPACT_EVERY and not check[3]]
        assert len(waited) > 10 * COMPACT_EVERY

    def test_a_reopened_server_keeps_the_rule(self):
        disk = MemoryDisk()
        first = open_sharded(disk)
        for ts in range(1, 400):
            prewrite(first, "k000", ts)
            if first.snapshots.compactions and first.wal.record_count >= COMPACT_EVERY:
                break
        assert first.snapshots.compactions == 1
        records = first.wal.record_count
        assert len(disk.read("s1.wal")) < len(disk.read("s1.snapshot"))
        reopened = open_sharded(disk)
        assert reopened.incarnation == 1
        checks = compaction_checks(reopened)
        prewrite(reopened, "k001", 1)  # one pw record past the floor
        assert reopened.snapshots.compactions == 0
        assert [check[0] for check in checks] == [records + 1]
        assert reopened.wal.record_count == records + 1

    def test_the_log_stays_within_a_snapshot_and_the_snapshots_within_the_log(self):
        """A long run of random batches with values of random size: before
        every append the log weighs at most the larger of the snapshot and
        the record floor, so recovery replays at most that plus one append;
        and the snapshot bytes written stay within the bytes logged plus the
        last snapshot."""
        disk = MemoryDisk()
        durable = open_sharded(disk)
        checks = compaction_checks(durable)
        appends, snapshots = [], []
        append, write = durable.wal.append, disk.write_atomically

        def counted_append(records):
            appends.append([len(encode_frame(record)) for record in records])
            append(records)

        def counted_write(path, data):
            if path == "s1.snapshot":
                snapshots.append(len(data))
            write(path, data)

        durable.wal.append = counted_append
        disk.write_atomically = counted_write
        rng, ts = random.Random(48), Counter()
        for _ in range(600):
            with durable.append_batch():
                for key in rng.sample(KEYSPACE, rng.randint(1, 6)):
                    ts[key] += 1
                    prewrite(durable, key, ts[key], "x" * rng.randint(0, 40))
        assert len(checks) == len(appends) == 600
        floor = (COMPACT_EVERY - 1) * max(size for frames in appends for size in frames)
        for (_, log, snapshot, _), frames in zip(checks, appends, strict=True):
            assert log - sum(frames) <= max(snapshot, floor)
        assert len(snapshots) >= 3
        assert sum(snapshots) <= sum(map(sum, appends)) + snapshots[-1]


def test_message_with_epoch_helper():
    message = Read(sender="s1", read_ts=1, round=1)
    stamped = message.with_epoch(3)
    assert stamped.epoch == 3 and message.epoch == 0
    assert stamped.with_epoch(3) is stamped
