"""Unit tests of the write-ahead log and snapshot machinery.

The edge cases that matter for recovery: a torn tail (crash mid-append), a
checksum mismatch mid-log, an empty log, snapshot + WAL-suffix replay, and
the idempotence of replay.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.server import StorageServer
from repro.core.types import TimestampValue
from repro.persist.durable import replay_records
from repro.persist.snapshot import (
    FileSnapshot,
    MemorySnapshot,
    SnapshotCorruptError,
    SnapshotManager,
    decode_snapshot,
    encode_snapshot,
)
from repro.persist.wal import MemoryWAL, WalRecord, WriteAheadLog, encode_frame


def record(ts, field="pw", register_id="", writer_id="", value=None):
    return WalRecord(
        register_id=register_id,
        field=field,
        ts=ts,
        writer_id=writer_id,
        value=f"v{ts}" if value is None else value,
    )


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "server.wal")


class TestWalRoundTrip:
    def test_empty_log_replays_to_nothing(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            assert wal.replay() == []
            assert wal.record_count == 0

    def test_missing_then_created_file(self, wal_path):
        assert not os.path.exists(wal_path)
        with WriteAheadLog(wal_path) as wal:
            assert os.path.exists(wal_path)
            assert wal.replay() == []

    def test_append_replay_round_trip(self, wal_path):
        records = [record(1), record(2, field="w"), record(3, field="vw")]
        with WriteAheadLog(wal_path) as wal:
            wal.append(records)
            assert wal.replay() == records

    def test_replay_survives_reopen(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1), record(2)])
        with WriteAheadLog(wal_path) as wal:
            assert wal.replay() == [record(1), record(2)]

    def test_batch_grouped_appends_count_one_batch(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1), record(2), record(3)])
            wal.append([record(4)])
            wal.append([])  # empty appends are free: no batch, no fsync
            assert wal.batches_appended == 2
            assert wal.records_appended == 4

    def test_append_after_close_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.close()
        with pytest.raises(ValueError):
            wal.append([record(1)])

    def test_values_round_trip_arbitrary_picklables(self, wal_path):
        payload = {"nested": [1, 2, ("x", None)]}
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1, value=payload)])
            assert wal.replay()[0].value == payload

    def test_invalid_field_rejected(self):
        with pytest.raises(ValueError):
            WalRecord(register_id="", field="tsr", ts=1, writer_id="", value="v")


class TestTornAndCorruptLogs:
    def test_torn_tail_record_is_dropped_and_truncated(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1), record(2)])
        # Simulate a crash mid-append: chop bytes off the last frame.
        with open(wal_path, "r+b") as fh:
            fh.truncate(os.path.getsize(wal_path) - 3)
        with WriteAheadLog(wal_path) as wal:
            assert wal.replay() == [record(1)]
            # The torn tail was physically truncated, so appends extend a
            # clean prefix.
            wal.append([record(3)])
            assert wal.replay() == [record(1), record(3)]

    def test_torn_header_is_dropped(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1)])
        with open(wal_path, "ab") as fh:
            fh.write(b"\x07\x00")  # 2 of 8 header bytes
        with WriteAheadLog(wal_path) as wal:
            assert wal.replay() == [record(1)]

    def test_checksum_mismatch_mid_log_truncates_the_suffix(self, wal_path):
        frames = [encode_frame(record(i)) for i in (1, 2, 3)]
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1), record(2), record(3)])
        # Flip one payload byte inside the *middle* frame: everything after a
        # bad checksum is untrustworthy, so replay keeps only the prefix.
        offset = len(frames[0]) + len(frames[1]) - 1
        with open(wal_path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with WriteAheadLog(wal_path) as wal:
            assert wal.replay() == [record(1)]

    def test_garbage_file_replays_to_nothing(self, wal_path):
        with open(wal_path, "wb") as fh:
            fh.write(b"not a wal at all")
        with WriteAheadLog(wal_path) as wal:
            assert wal.replay() == []
            assert os.path.getsize(wal_path) == 0  # truncated to the clean prefix

    def test_replay_without_truncate_preserves_bytes(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1)])
        with open(wal_path, "ab") as fh:
            fh.write(b"junk")
        size_before = os.path.getsize(wal_path)
        with WriteAheadLog(wal_path) as wal:
            assert wal.replay(truncate=False) == [record(1)]
            assert os.path.getsize(wal_path) == size_before

    def test_reset_empties_the_log(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append([record(1), record(2)])
            wal.reset()
            assert wal.replay() == []
            wal.append([record(3)])
            assert wal.replay() == [record(3)]


class TestMemoryWal:
    def test_round_trip_and_counts(self):
        wal = MemoryWAL()
        wal.append([record(1), record(2)])
        wal.append([record(3)])
        assert wal.replay() == [record(1), record(2), record(3)]
        assert wal.batches_appended == 2
        assert wal.record_count == 3

    def test_drop_tail_models_unfsynced_records(self):
        wal = MemoryWAL()
        wal.append([record(1), record(2), record(3)])
        assert wal.drop_tail(2) == 2
        assert wal.replay() == [record(1)]
        assert wal.drop_tail(5) == 1  # cannot drop more than exists
        assert wal.replay() == []
        assert wal.drop_tail(1) == 0

    def test_reset(self):
        wal = MemoryWAL()
        wal.append([record(1)])
        wal.reset()
        assert wal.record_count == 0


class TestSnapshots:
    def test_file_snapshot_round_trip(self, tmp_path):
        store = FileSnapshot(str(tmp_path / "s1.snapshot"))
        assert store.load() is None
        state = {"": {"pw": TimestampValue(3, "v3")}}
        store.save(state)
        assert store.load() == state

    def test_corrupt_snapshot_is_refused_not_read_as_missing(self, tmp_path):
        path = tmp_path / "s1.snapshot"
        store = FileSnapshot(str(path))
        store.save({"x": 1})
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
        with pytest.raises(SnapshotCorruptError):
            store.load()

    def test_truncated_snapshot_is_refused_not_read_as_missing(self, tmp_path):
        path = tmp_path / "s1.snapshot"
        FileSnapshot(str(path)).save({"x": 1})
        path.write_bytes(path.read_bytes()[:5])
        with pytest.raises(SnapshotCorruptError):
            FileSnapshot(str(path)).load()

    def test_encode_decode(self):
        assert decode_snapshot(encode_snapshot([1, 2])) == [1, 2]
        assert decode_snapshot(b"") is None

    def test_manager_compacts_once_threshold_is_reached(self):
        wal = MemoryWAL()
        store = MemorySnapshot()
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
        assert wal.record_count == 0
        assert manager.compactions == 1

    def test_manager_keeps_the_log_when_the_save_fails(self):
        wal = MemoryWAL()

        class FailingStore(MemorySnapshot):
            def save(self, changed, live=None):
                raise OSError("disk full")

        manager = SnapshotManager(FailingStore(), wal, compact_every=1)
        wal.append([record(1)])
        with pytest.raises(OSError):
            manager.maybe_compact(lambda: ({"": {}}, [""]))
        assert wal.record_count == 1  # snapshot-before-reset: nothing was lost
        assert manager.compactions == 0

    @pytest.mark.parametrize(
        "make_store",
        [lambda tmp: MemorySnapshot(), lambda tmp: FileSnapshot(str(tmp / "s1.snapshot"))],
        ids=["memory", "file"],
    )
    def test_save_merges_changed_registers_into_the_kept_rest(self, make_store, tmp_path):
        store = make_store(tmp_path)
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
        with pytest.raises(ValueError):
            SnapshotManager(MemorySnapshot(), MemoryWAL(), compact_every=0)


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
