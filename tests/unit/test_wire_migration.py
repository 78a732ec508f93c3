"""WAL and snapshot payloads are the binary wire encoding — and nothing else.

Earlier releases framed pickled payloads behind the same length+CRC32
framing, and the readers kept a per-frame dialect sniffer for them long after
the last writer was gone.  A CRC32 guards against torn writes, not against a
crafted file, so that sniffer was an arbitrary-code path: a pickle payload is
now just a corrupt frame.
"""

import pickle

import pytest

from repro.persist.snapshot import (
    FileSnapshot,
    SnapshotCorruptError,
    decode_snapshot,
    encode_register,
    encode_snapshot,
)
from repro.persist.wal import (
    WalRecord,
    WriteAheadLog,
    decode_frames,
    decode_record_payload,
    encode_frame,
    frame_payload,
)
from repro.wire import encode_payload
from repro.wire.codec import MAGIC

RECORDS = [
    WalRecord("k1", "pw", 1, "w", "v1"),
    WalRecord("k1", "w", 1, "w", "v1"),
    WalRecord("k2", "vw", 2, "w2", None),
]

STATE = {"registers": {"k1": {"pw": (1, "v1"), "w": (1, "v1")}}, "epoch": 3}


FIRED = []


def _detonate():
    FIRED.append("boom")


class _Detonator:
    """Unpickling an instance calls :func:`_detonate` — a visible side effect
    standing in for whatever a hostile ``__reduce__`` would run."""

    def __reduce__(self):
        return (_detonate, ())


class TestWalPayloads:
    def test_default_frames_are_binary(self):
        frame = encode_frame(RECORDS[0])
        assert frame[8:10] == MAGIC  # after the 8-byte length+CRC header

    def test_binary_log_replays(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "new.wal")) as wal:
            wal.append(RECORDS)
            assert wal.replay() == RECORDS

    def test_only_binary_record_payloads_decode(self):
        assert decode_record_payload(encode_payload(RECORDS[0])) == RECORDS[0]
        assert decode_record_payload(encode_payload("not a record")) is None
        assert decode_record_payload(b"garbage") is None

    def test_pickle_frame_ends_the_log_like_any_corrupt_frame(self, tmp_path):
        path = tmp_path / "mixed.wal"
        legacy = frame_payload(pickle.dumps(RECORDS[1], protocol=pickle.HIGHEST_PROTOCOL))
        path.write_bytes(encode_frame(RECORDS[0]) + legacy + encode_frame(RECORDS[2]))
        with WriteAheadLog(str(path)) as wal:
            assert wal.replay() == RECORDS[:1]


class TestSnapshotPayloads:
    def test_binary_snapshot_roundtrip(self, tmp_path):
        path = tmp_path / "new.snapshot"
        snapshot = FileSnapshot(str(path))
        snapshot.save({key: encode_register(key, value) for key, value in STATE.items()})
        assert snapshot.load() == STATE
        assert path.read_bytes()[8:10] == MAGIC
        assert decode_snapshot(encode_snapshot(STATE)) == STATE

    def test_corrupt_snapshot_reads_as_none(self):
        assert decode_snapshot(b"short") is None
        good = encode_snapshot(STATE)
        torn = good[: len(good) - 3]
        assert decode_snapshot(torn) is None


def test_crc_valid_pickle_payload_is_refused_without_running_it(tmp_path):
    FIRED.clear()
    payload = pickle.dumps(_Detonator(), protocol=pickle.HIGHEST_PROTOCOL)
    assert payload[:1] == b"\x80"  # the opcode the old sniffers keyed on
    frame = frame_payload(payload)  # length + a *valid* CRC32
    assert decode_record_payload(payload) is None
    assert decode_frames(frame) == ([], 0)
    assert decode_snapshot(frame) is None
    path = tmp_path / "hostile.snapshot"
    path.write_bytes(frame)
    with pytest.raises(SnapshotCorruptError):
        FileSnapshot(str(path)).load()
    assert FIRED == []
    # The payload is live: anything that did unpickle it would have fired.
    pickle.loads(payload)
    assert FIRED == ["boom"]
