"""Unit tests of the write-ahead log and snapshot machinery, on both disks.

The edge cases that matter for recovery: a torn tail (crash mid-append, cut
at every byte of the last batch), a checksum mismatch mid-log, an empty log,
what a crash keeps of an unsynced tail, snapshot + WAL-suffix replay, and the
idempotence of replay.  Every log and snapshot test runs on the OS disk and
on a :class:`~repro.persist.disk.MemoryDisk`: one code path, two byte stores.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.server import StorageServer
from repro.core.types import TimestampValue
from repro.persist.disk import OS_DISK, MemoryDisk
from repro.persist.durable import replay_records
from repro.persist.snapshot import (
    FileSnapshot,
    SnapshotCorruptError,
    SnapshotManager,
    decode_snapshot,
    encode_snapshot,
)
from repro.persist.wal import WalRecord, WriteAheadLog, encode_frame, tear_tail


def record(ts, field="pw", register_id="", writer_id="", value=None):
    return WalRecord(
        register_id=register_id,
        field=field,
        ts=ts,
        writer_id=writer_id,
        value=f"v{ts}" if value is None else value,
    )


@pytest.fixture(params=["os", "memory"])
def disk(request):
    return OS_DISK if request.param == "os" else MemoryDisk()


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "server.wal")


@pytest.fixture
def open_log(disk, wal_path):
    """Open the log at ``wal_path`` on the parametrized disk."""

    def open_(**kwargs):
        return WriteAheadLog(wal_path, disk=disk, **kwargs)

    return open_


class TestWalRoundTrip:
    def test_empty_log_replays_to_nothing(self, open_log):
        with open_log() as wal:
            assert wal.replay() == []
            assert wal.record_count == 0

    def test_missing_then_created_file(self, disk, wal_path, open_log):
        assert disk.read(wal_path) is None
        with open_log() as wal:
            assert disk.read(wal_path) == b""
            assert wal.replay() == []

    def test_append_replay_round_trip(self, open_log):
        records = [record(1), record(2, field="w"), record(3, field="vw")]
        with open_log() as wal:
            wal.append(records)
            assert wal.replay() == records

    def test_replay_survives_reopen(self, open_log):
        with open_log() as wal:
            wal.append([record(1), record(2)])
        with open_log() as wal:
            assert wal.replay() == [record(1), record(2)]

    def test_batch_grouped_appends_count_one_batch(self, open_log):
        with open_log() as wal:
            wal.append([record(1), record(2), record(3)])
            wal.append([record(4)])
            wal.append([])  # empty appends are free: no batch, no fsync
            assert wal.batches_appended == 2
            assert wal.records_appended == 4
            assert wal.record_count == 4

    def test_append_after_close_raises(self, open_log):
        wal = open_log()
        wal.close()
        with pytest.raises(ValueError):
            wal.append([record(1)])

    def test_values_round_trip_arbitrary_picklables(self, open_log):
        payload = {"nested": [1, 2, ("x", None)]}
        with open_log() as wal:
            wal.append([record(1, value=payload)])
            assert wal.replay()[0].value == payload

    def test_invalid_field_rejected(self):
        with pytest.raises(ValueError):
            WalRecord(register_id="", field="tsr", ts=1, writer_id="", value="v")


class TestTornAndCorruptLogs:
    def test_torn_tail_record_is_dropped_and_truncated(self, disk, wal_path, open_log):
        with open_log() as wal:
            wal.append([record(1), record(2)])
        # Simulate a crash mid-append: chop bytes off the last frame.
        disk.write_atomically(wal_path, disk.read(wal_path)[:-3])
        with open_log() as wal:
            assert wal.replay() == [record(1)]
            # The torn tail was physically truncated, so appends extend a
            # clean prefix.
            wal.append([record(3)])
            assert wal.replay() == [record(1), record(3)]

    def test_torn_header_is_dropped(self, disk, wal_path, open_log):
        with open_log() as wal:
            wal.append([record(1)])
        disk.write_atomically(wal_path, disk.read(wal_path) + b"\x07\x00")  # 2 of 8 header bytes
        with open_log() as wal:
            assert wal.replay() == [record(1)]

    def test_checksum_mismatch_mid_log_truncates_the_suffix(self, disk, wal_path, open_log):
        frames = [encode_frame(record(i)) for i in (1, 2, 3)]
        with open_log() as wal:
            wal.append([record(1), record(2), record(3)])
        # Flip one payload byte inside the *middle* frame: everything after a
        # bad checksum is untrustworthy, so replay keeps only the prefix.
        data = bytearray(disk.read(wal_path))
        data[len(frames[0]) + len(frames[1]) - 1] ^= 0xFF
        disk.write_atomically(wal_path, bytes(data))
        with open_log() as wal:
            assert wal.replay() == [record(1)]

    def test_garbage_file_replays_to_nothing(self, disk, wal_path, open_log):
        disk.write_atomically(wal_path, b"not a wal at all")
        with open_log() as wal:
            assert wal.replay() == []
            assert disk.read(wal_path) == b""  # truncated to the clean prefix

    def test_replay_without_truncate_preserves_bytes(self, disk, wal_path, open_log):
        with open_log() as wal:
            wal.append([record(1)])
        junk = disk.read(wal_path) + b"junk"
        disk.write_atomically(wal_path, junk)
        with open_log() as wal:
            assert wal.replay(truncate=False) == [record(1)]
            assert disk.read(wal_path) == junk

    def test_reset_empties_the_log(self, open_log):
        with open_log() as wal:
            wal.append([record(1), record(2)])
            wal.reset()
            assert wal.replay() == []
            wal.append([record(3)])
            assert wal.replay() == [record(3)]

    def test_byte_length_is_the_clean_prefix(self, disk, wal_path, open_log):
        """What compaction weighs against the snapshot: the intact frames'
        bytes — read without truncating on a log never replayed, the prefix a
        torn tail is cut back to after a replay, then kept by every append
        and reset."""
        first, second = (len(encode_frame(record(ts))) for ts in (1, 2))
        with open_log() as wal:
            wal.append([record(1), record(2)])
            assert wal.byte_length == first + second
        torn = disk.read(wal_path)[:-3]
        disk.write_atomically(wal_path, torn)
        with open_log() as wal:
            assert (wal.record_count, wal.byte_length) == (1, first)
            assert disk.read(wal_path) == torn  # counting truncates nothing
        with open_log() as wal:
            wal.replay()
            assert wal.byte_length == first == len(disk.read(wal_path))
            wal.append([record(3)])
            assert wal.byte_length == first + len(encode_frame(record(3)))
            assert wal.byte_length == len(disk.read(wal_path))
            wal.reset()
            assert wal.byte_length == 0


BATCHES = [[record(1), record(2)], [record(3, field="w")], [record(4), record(5), record(6)]]


def frame_ends(records):
    """The byte offset at which each record's frame ends in a fresh log."""
    ends, offset = [], 0
    for each in records:
        offset += len(encode_frame(each))
        ends.append(offset)
    return ends


class TestTornTails:
    def test_a_cut_at_every_byte_of_the_last_batch(self, disk, wal_path, open_log):
        """Replay keeps exactly the complete frames, truncates the file to
        them, and the next append's records replay after them."""
        records = [each for batch in BATCHES for each in batch]
        ends = frame_ends(records)
        with open_log() as wal:
            for batch in BATCHES:
                wal.append(batch)
        data = disk.read(wal_path)
        assert len(data) == ends[-1]
        last_batch_starts = ends[-len(BATCHES[-1]) - 1]
        for cut in range(last_batch_starts, len(data)):
            disk.write_atomically(wal_path, data[:cut])
            intact = [each for each, end in zip(records, ends) if end <= cut]
            with open_log() as wal:
                assert wal.replay() == intact, cut
                assert disk.read(wal_path) == data[: ends[len(intact) - 1]]
                wal.append([record(99)])
                assert wal.replay() == [*intact, record(99)], cut

    def test_a_crash_keeps_the_synced_prefix_and_any_prefix_of_the_rest(self, wal_path):
        disk = MemoryDisk()
        with WriteAheadLog(wal_path, disk=disk) as wal:
            wal.append(BATCHES[0])
        with WriteAheadLog(wal_path, disk=disk, fsync=False) as wal:
            wal.append(BATCHES[1])
            wal.append(BATCHES[2])
        records = [each for batch in BATCHES for each in batch]
        ends = frame_ends(records)
        synced = disk.files[wal_path].synced
        assert synced == ends[len(BATCHES[0]) - 1]
        for keep in range(len(disk.read(wal_path)) - synced + 1):
            crashed = copy.deepcopy(disk)
            crashed.crash({wal_path: keep})
            assert len(crashed.read(wal_path)) == synced + keep
            with WriteAheadLog(wal_path, disk=crashed) as wal:
                assert wal.replay() == [
                    each for each, end in zip(records, ends) if end <= synced + keep
                ]

    def test_tear_tail_drops_exactly_that_many_records(self, wal_path):
        """What the simulator's ``lose_tail=N`` does to the log before the
        recovery reads it."""
        disk = MemoryDisk()
        with WriteAheadLog(wal_path, disk=disk) as wal:
            wal.append([record(1), record(2), record(3)])
        tear_tail(disk, wal_path, 2)
        with WriteAheadLog(wal_path, disk=disk) as wal:
            assert wal.replay() == [record(1)]
        tear_tail(disk, wal_path, 5)  # more than it holds: all of them
        with WriteAheadLog(wal_path, disk=disk) as wal:
            assert wal.replay() == []
        tear_tail(disk, wal_path, 1)  # an empty log has nothing to lose
        assert disk.read(wal_path) == b""


@pytest.fixture
def snapshot_path(tmp_path):
    return str(tmp_path / "s1.snapshot")


class TestSnapshots:
    def test_file_snapshot_round_trip(self, disk, snapshot_path):
        store = FileSnapshot(snapshot_path, disk=disk)
        assert store.load() is None
        state = {"": {"pw": TimestampValue(3, "v3")}}
        store.save(state)
        assert store.load() == state

    def test_corrupt_snapshot_is_refused_not_read_as_missing(self, disk, snapshot_path):
        store = FileSnapshot(snapshot_path, disk=disk)
        store.save({"x": 1})
        data = disk.read(snapshot_path)
        disk.write_atomically(snapshot_path, data[:-1] + bytes([data[-1] ^ 0xFF]))
        with pytest.raises(SnapshotCorruptError):
            store.load()

    def test_truncated_snapshot_is_refused_not_read_as_missing(self, disk, snapshot_path):
        FileSnapshot(snapshot_path, disk=disk).save({"x": 1})
        disk.write_atomically(snapshot_path, disk.read(snapshot_path)[:5])
        with pytest.raises(SnapshotCorruptError):
            FileSnapshot(snapshot_path, disk=disk).load()

    def test_encode_decode(self):
        assert decode_snapshot(encode_snapshot([1, 2])) == [1, 2]
        assert decode_snapshot(b"") is None

    def test_manager_compacts_once_threshold_is_reached(self):
        disk = MemoryDisk()
        wal = WriteAheadLog("s1.wal", disk=disk)
        store = FileSnapshot("s1.snapshot", disk=disk)
        manager = SnapshotManager(store, wal, compact_every=3)
        wal.append([record(1), record(2)])
        asked = []

        def delta(state):
            asked.append(state)
            return {"": {"state": state}}, [""]

        assert not manager.maybe_compact(lambda: delta("a"))
        assert asked == []  # the delta is only computed when a compaction is due
        wal.append([record(3)])
        assert manager.maybe_compact(lambda: delta("b"))
        assert store.load() == {"": {"state": "b"}}
        assert wal.record_count == 0 and disk.read("s1.wal") == b""
        assert manager.compactions == 1

    def test_manager_waits_for_the_log_to_outweigh_the_snapshot(self):
        disk = MemoryDisk()
        wal = WriteAheadLog("s1.wal", disk=disk)
        store = FileSnapshot("s1.snapshot", disk=disk)
        store.save({"": {"state": "x" * 200}})
        assert store.size == len(disk.read("s1.snapshot"))
        manager = SnapshotManager(store, wal, compact_every=1)
        state = {"": {"state": "y"}}, [""]
        while wal.byte_length + len(encode_frame(record(1))) < store.size:
            wal.append([record(1)])
            assert not manager.maybe_compact(lambda: state)
        wal.append([record(1)])  # the first append that outweighs it
        assert manager.maybe_compact(lambda: state)
        assert store.size == len(disk.read("s1.snapshot")) < 100
        # A loaded store weighs the file it read.
        loaded = FileSnapshot("s1.snapshot", disk=disk)
        assert loaded.size == 0 and loaded.load() == state[0]
        assert loaded.size == store.size

    def test_manager_keeps_the_log_when_the_save_fails(self):
        disk = MemoryDisk()
        wal = WriteAheadLog("s1.wal", disk=disk)

        class FailingStore(FileSnapshot):
            def save(self, changed, live=None):
                raise OSError("disk full")

        manager = SnapshotManager(FailingStore("s1.snapshot", disk=disk), wal, compact_every=1)
        wal.append([record(1)])
        with pytest.raises(OSError):
            manager.maybe_compact(lambda: ({"": {}}, [""]))
        assert wal.replay() == [record(1)]  # snapshot-before-reset: nothing was lost
        assert manager.compactions == 0

    def test_save_merges_changed_registers_into_the_kept_rest(self, disk, snapshot_path):
        store = FileSnapshot(snapshot_path, disk=disk)
        store.save({"k1": {"pw": 1}, "k2": {"pw": 2}, "k3": {"pw": 3}})
        store.save({"k2": {"pw": 20}}, ["k1", "k2", "k3"])
        assert store.load() == {"k1": {"pw": 1}, "k2": {"pw": 20}, "k3": {"pw": 3}}
        # Order is the live list's, and a register that left is forgotten.
        store.save({"k4": {"pw": 4}}, ["k3", "k4", "k1"])
        assert list(store.load().items()) == [
            ("k3", {"pw": 3}),
            ("k4", {"pw": 4}),
            ("k1", {"pw": 1}),
        ]
        with pytest.raises(KeyError):  # k2 left: its bytes are not served again
            store.save({}, ["k1", "k2"])

    def test_manager_rejects_nonpositive_threshold(self):
        disk = MemoryDisk()
        with pytest.raises(ValueError):
            SnapshotManager(
                FileSnapshot("s1.snapshot", disk=disk),
                WriteAheadLog("s1.wal", disk=disk),
                compact_every=0,
            )


# --------------------------------------------------------------------------- #
# Property: replay is idempotent
# --------------------------------------------------------------------------- #

wal_records = st.lists(
    st.builds(
        WalRecord,
        register_id=st.just(""),
        field=st.sampled_from(["pw", "w", "vw"]),
        ts=st.integers(min_value=0, max_value=20),
        writer_id=st.sampled_from(["", "w", "r1"]),
        value=st.text(max_size=4),
    ),
    max_size=40,
)


def server_state(server):
    return (server.pw, server.w, server.vw)


@settings(max_examples=60, deadline=None)
@given(records=wal_records)
def test_replay_is_idempotent_and_repeatable(records):
    """replay(log) twice — or over an already-replayed server — changes nothing."""
    config = SystemConfig(t=1, b=0, fw=1, fr=0)
    once = StorageServer("s1", config)
    replay_records(once, records)
    twice = StorageServer("s1", config)
    replay_records(twice, records)
    replay_records(twice, records)
    assert server_state(once) == server_state(twice)
    # Replay order-robustness on the monotone fields: any prefix replayed
    # again leaves the state unchanged.
    replay_records(once, records[: len(records) // 2])
    assert server_state(once) == server_state(twice)
