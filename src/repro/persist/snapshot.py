"""Snapshots: compaction of the write-ahead log.

A snapshot serializes the full durable state of a server (every register's
``pw/w/vw`` pairs plus the per-reader read/freeze bookkeeping, via
:meth:`repro.core.server.StorageServer.export_state`) into one checksummed
frame, after which the WAL prefix it covers is redundant and gets truncated.
Recovery is then *snapshot + WAL suffix replay*: restore the snapshot, apply
whatever records were logged after it.  Both halves are monotone over the
``(ts, writer_id)`` pairs, so recovery is idempotent and order-insensitive.

A snapshot is always *complete*, but taking one costs what changed: the
encoded state is a dict, a dict encodes as the concatenation of its items,
and one register's item is its durable bytes (:func:`encode_register`, also
what a bounded server spills an evicted register as).  :class:`FileSnapshot`
keeps each register's chunk, so a compaction hands over only the chunks of
the registers that changed and the rest are the bytes it already holds.  The
file is byte for byte ``encode_snapshot(full state)``.

:class:`FileSnapshot` writes atomically (temp file + ``os.replace`` on the OS
disk, :meth:`~repro.persist.disk.OSDisk.write_atomically`) so a crash
mid-snapshot leaves the previous snapshot intact.  A missing file reads as "no
snapshot"; a file that is there but does not decode raises
:class:`SnapshotCorruptError` — the log it superseded was truncated when it
was written, so starting without it would silently forget acknowledged state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..wire.codec import decode_payload, encode_dict_item, encode_payload, join_dict_items
from .disk import OS_DISK, Disk
from .wal import WriteAheadLog, frame_payload, unframe_payload

#: What a compaction hands the store: the chunk (:func:`encode_register`) of
#: every register that changed since the last snapshot, and every live
#: register id in snapshot order.
SnapshotDelta = Tuple[Mapping[str, bytes], Sequence[str]]


class SnapshotCorruptError(Exception):
    """A snapshot exists but fails its checksum, magic or decode."""


def encode_snapshot(state: Any) -> bytes:
    """One checksummed frame (the WAL's framing) holding the versioned binary
    payload of *state*."""
    return frame_payload(encode_payload(state))


def decode_snapshot(data: bytes) -> Optional[Any]:
    """The state held by *data*, or ``None`` if the frame is torn, corrupt or
    not the binary wire encoding."""
    frame = unframe_payload(data)
    if frame is None:
        return None
    try:
        return decode_payload(frame[0])
    except Exception:
        return None


def encode_register(register_id: str, state: Any) -> bytes:
    """A register's durable bytes: the chunk its id and exported *state*
    contribute to an encoded snapshot (:func:`~repro.wire.codec.join_dict_items`
    joins chunks into the file's payload)."""
    return encode_dict_item(register_id, state)


def decode_register(register_id: str, chunk: bytes) -> Any:
    """The state :func:`encode_register` wrote into *chunk*."""
    return decode_payload(join_dict_items([chunk]))[register_id]


class FileSnapshot:
    """Atomic, checksummed snapshot storage: one file on *disk*.

    ``save`` takes the chunk (:func:`encode_register`) of every register
    that *changed* since the previous save plus the ids of all *live*
    registers in snapshot order (omitted: exactly the changed ones — a full
    snapshot is "every register changed"); the unchanged rest comes from the
    chunks this object kept, so every id in *live* must have been in some
    earlier *changed*.  ``load`` returns the complete state, or ``None`` when
    no snapshot has been taken yet.
    """

    def __init__(self, path: str, disk: Disk = OS_DISK) -> None:
        self.path = path
        self.disk = disk
        #: Register id → its chunk, as handed to :meth:`save`.
        self._chunks: Dict[str, bytes] = {}
        #: Byte length of the file this object last wrote or loaded (0: none).
        self.size = 0

    def save(
        self, changed: Mapping[str, bytes], live: Optional[Sequence[str]] = None
    ) -> None:
        chunks = self._chunks
        chunks.update(changed)
        if live is None:
            live = list(changed)
        if len(chunks) != len(live):  # registers left since the last save
            self._chunks = chunks = {register_id: chunks[register_id] for register_id in live}
        data = frame_payload(join_dict_items([chunks[register_id] for register_id in live]))
        self.disk.write_atomically(self.path, data)
        self.size = len(data)

    def load(self) -> Optional[Any]:
        data = self.disk.read(self.path)
        if data is None:
            return None
        state = decode_snapshot(data)
        if state is None:
            raise SnapshotCorruptError(
                f"snapshot {self.path} is corrupt ({len(data)} bytes fail the "
                "checksum, magic or decode); the WAL it superseded is gone, so "
                "recovering without it would forget acknowledged state"
            )
        self.size = len(data)
        return state


class SnapshotManager:
    """Compacts a WAL into snapshots once the log outweighs the last snapshot.

    Owned by a :class:`~repro.persist.durable.DurableServer`; after every
    appended batch the server asks :meth:`maybe_compact`, which compacts once
    the log holds at least *compact_every* records **and** at least as many
    bytes as the last snapshot file: :meth:`compact` saves what changed since
    the last snapshot into the snapshot store and resets the log.  A
    compaction rewrites the whole state, so pacing it by the state's size
    keeps the snapshot bytes written per logged byte at about 1 however many
    registers the server holds; recovery replays at most one snapshot's worth
    of log (or *compact_every* records, when that is more) plus one append.
    The snapshot is written *before* the log is truncated, so a crash between
    the two steps merely replays records the snapshot already covers (replay
    is idempotent).
    """

    def __init__(
        self, store: FileSnapshot, wal: WriteAheadLog, compact_every: int = 512
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        self.store = store
        self.wal = wal
        self.compact_every = compact_every
        self.compactions = 0

    def maybe_compact(self, delta: Callable[[], SnapshotDelta]) -> bool:
        """:meth:`compact` if the log is due (only then is *delta* asked);
        returns whether it ran."""
        wal = self.wal
        if wal.record_count < self.compact_every or wal.byte_length < self.store.size:
            return False
        self.compact(delta)
        return True

    def compact(self, delta: Callable[[], SnapshotDelta]) -> None:
        """Snapshot now, asking *delta* for the ``(changed, live)`` pair of
        :meth:`FileSnapshot.save`, then empty the log."""
        self.store.save(*delta())
        self.wal.reset()
        self.compactions += 1
