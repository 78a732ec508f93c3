"""Snapshots: periodic compaction of the write-ahead log.

A snapshot serializes the full durable state of a server (every register's
``pw/w/vw`` pairs plus the per-reader read/freeze bookkeeping, via
:meth:`repro.core.server.StorageServer.export_state`) into one checksummed
frame, after which the WAL prefix it covers is redundant and gets truncated.
Recovery is then *snapshot + WAL suffix replay*: restore the snapshot, apply
whatever records were logged after it.  Both halves are monotone over the
``(ts, writer_id)`` pairs, so recovery is idempotent and order-insensitive.

A snapshot is always *complete*, but taking one costs what changed: the
encoded state is a dict, a dict encodes as the concatenation of its items,
and :class:`FileSnapshot` keeps each register's item bytes — so a compaction
re-encodes only the registers its caller names as changed and assembles the
rest from the bytes it already holds.  The file is byte for byte
``encode_snapshot(full state)``.

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

#: What a compaction hands the store: the exported state of the registers
#: that changed since the last snapshot, and every live register id in
#: snapshot order.
SnapshotDelta = Tuple[Mapping[str, Any], Sequence[str]]


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


class FileSnapshot:
    """Atomic, checksummed snapshot storage: one file on *disk*.

    ``save`` takes the state of the registers that *changed* since the
    previous save plus the ids of all *live* registers in snapshot order
    (omitted: exactly the changed ones — a full snapshot is "every register
    changed"); the unchanged rest comes from the bytes this object kept, so
    every id in *live* must have been in some earlier *changed*.  ``load``
    returns the complete state, or ``None`` when no snapshot has been taken
    yet.
    """

    def __init__(self, path: str, disk: Disk = OS_DISK) -> None:
        self.path = path
        self.disk = disk
        #: Register id → the bytes its item contributes to the encoded state.
        self._chunks: Dict[str, bytes] = {}

    def save(
        self, changed: Mapping[str, Any], live: Optional[Sequence[str]] = None
    ) -> None:
        chunks = self._chunks
        for register_id, state in changed.items():
            chunks[register_id] = encode_dict_item(register_id, state)
        if live is None:
            live = list(changed)
        if len(chunks) != len(live):  # registers left since the last save
            self._chunks = chunks = {register_id: chunks[register_id] for register_id in live}
        payload = join_dict_items([chunks[register_id] for register_id in live])
        self.disk.write_atomically(self.path, frame_payload(payload))

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
        return state


class SnapshotManager:
    """Compacts a WAL into snapshots once it grows past a record threshold.

    Owned by a :class:`~repro.persist.durable.DurableServer`; after every
    appended batch the server asks :meth:`maybe_compact`, which — once the log
    holds at least *compact_every* records — saves what changed since the last
    snapshot into the snapshot store and resets the log.  The snapshot is
    written *before* the log is truncated, so a crash between the two steps
    merely replays records the snapshot already covers (replay is idempotent).
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
        """Snapshot if the log is due, asking *delta* — only then — for the
        ``(changed, live)`` pair of :meth:`FileSnapshot.save`; returns
        whether a compaction ran."""
        if self.wal.record_count < self.compact_every:
            return False
        self.store.save(*delta())
        self.wal.reset()
        self.compactions += 1
        return True
