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

:class:`FileSnapshot` writes atomically (temp file + ``os.replace``) so a
crash mid-snapshot leaves the previous snapshot intact.  A missing file reads
as "no snapshot"; a file that is there but does not decode raises
:class:`SnapshotCorruptError` — the log it superseded was truncated when it
was written, so starting without it would silently forget acknowledged state.
:class:`MemorySnapshot` is the simulator's in-memory twin.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Mapping, Optional, Protocol, Sequence, Tuple

from ..wire.codec import decode_payload, encode_dict_item, encode_payload, join_dict_items
from .wal import WalLike, frame_payload, unframe_payload

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


def write_file_atomically(path: str, data: bytes) -> None:
    """Write *data* to *path* so a crash leaves either the old or new content.

    Temp file + fsync + ``os.replace`` + a *directory* fsync: without the last
    step the rename's directory entry itself may not survive a power failure,
    which matters when the caller's next action (e.g. truncating the WAL a
    snapshot just superseded) is an in-place write that *would* survive.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class SnapshotStore(Protocol):
    """The two-method storage API snapshots live behind.

    Satisfied structurally by :class:`FileSnapshot` and
    :class:`MemorySnapshot`.  ``save`` takes the state of the registers that
    *changed* since the previous save plus the ids of all *live* registers in
    snapshot order (omitted: exactly the changed ones — a full snapshot is
    "every register changed"); the store supplies the unchanged rest from
    what it kept, so every id in *live* must have been in some earlier
    *changed*.  ``load`` returns the complete state, or ``None`` when no
    snapshot has been taken yet.
    """

    def save(
        self, changed: Mapping[str, Any], live: Optional[Sequence[str]] = None
    ) -> None: ...

    def load(self) -> Optional[Any]: ...


class FileSnapshot:
    """Atomic, checksummed snapshot storage backed by one file."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: Register id → the bytes its item contributes to the encoded state.
        self._chunks: Dict[str, bytes] = {}
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

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
        write_file_atomically(self.path, frame_payload(payload))

    def load(self) -> Optional[Any]:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        state = decode_snapshot(data)
        if state is None:
            raise SnapshotCorruptError(
                f"snapshot {self.path} is corrupt ({len(data)} bytes fail the "
                "checksum, magic or decode); the WAL it superseded is gone, so "
                "recovering without it would forget acknowledged state"
            )
        return state


class MemorySnapshot:
    """In-memory snapshot storage for the simulator."""

    def __init__(self) -> None:
        self._state: Optional[Dict[str, Any]] = None
        self.saves = 0

    def save(
        self, changed: Mapping[str, Any], live: Optional[Sequence[str]] = None
    ) -> None:
        kept = self._state or {}
        self._state = {
            register_id: changed[register_id] if register_id in changed else kept[register_id]
            for register_id in (changed if live is None else live)
        }
        self.saves += 1

    def load(self) -> Optional[Any]:
        return self._state


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
        self, store: SnapshotStore, wal: WalLike, compact_every: int = 512
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        self.store = store
        self.wal = wal
        self.compact_every = compact_every
        self.compactions = 0

    def maybe_compact(self, delta: Callable[[], SnapshotDelta]) -> bool:
        """Snapshot if the log is due, asking *delta* — only then — for the
        ``(changed, live)`` pair of :meth:`SnapshotStore.save`; returns
        whether a compaction ran."""
        if self.wal.record_count < self.compact_every:
            return False
        self.store.save(*delta())
        self.wal.reset()
        self.compactions += 1
        return True
