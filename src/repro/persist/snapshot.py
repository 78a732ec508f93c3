"""Snapshots: periodic compaction of the write-ahead log.

A snapshot serializes the full durable state of a server (every register's
``pw/w/vw`` pairs plus the per-reader read/freeze bookkeeping, via
:meth:`repro.core.server.StorageServer.export_state`) into one checksummed
frame, after which the WAL prefix it covers is redundant and gets truncated.
Recovery is then *snapshot + WAL suffix replay*: restore the snapshot, apply
whatever records were logged after it.  Both halves are monotone over the
``(ts, writer_id)`` pairs, so recovery is idempotent and order-insensitive.

:class:`FileSnapshot` writes atomically (temp file + ``os.replace``) so a
crash mid-snapshot leaves the previous snapshot intact; a corrupt or missing
snapshot file reads as "no snapshot", falling back to full-log replay.
:class:`MemorySnapshot` is the simulator's in-memory twin.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Protocol, Union

from ..wire import Codec, get_codec
from ..wire.codec import MAGIC
from .wal import WalLike, frame_payload, unframe_payload


def encode_snapshot(state: Any, codec: Union[str, Codec, None] = None) -> bytes:
    """One checksummed frame (the WAL's framing) holding the encoded *state*.

    The payload is the versioned binary wire encoding unless a Codec instance
    overrides it.
    """
    return frame_payload(get_codec(codec).encode_value(state))


def decode_snapshot(data: bytes) -> Optional[Any]:
    """The state held by *data*, or ``None`` if the frame is torn, corrupt or
    not the binary wire encoding."""
    frame = unframe_payload(data)
    if frame is None or frame[0][:2] != MAGIC:
        return None
    try:
        return get_codec("binary").decode_value(frame[0])
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
    :class:`MemorySnapshot`; ``load`` returns ``None`` when no snapshot has
    been taken yet.
    """

    def save(self, state: Any) -> None: ...

    def load(self) -> Optional[Any]: ...


class FileSnapshot:
    """Atomic, checksummed snapshot storage backed by one file."""

    def __init__(self, path: str, codec: Union[str, Codec, None] = None) -> None:
        self.path = path
        self.codec = get_codec(codec)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def save(self, state: Any) -> None:
        write_file_atomically(self.path, encode_snapshot(state, self.codec))

    def load(self) -> Optional[Any]:
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        return decode_snapshot(data)


class MemorySnapshot:
    """In-memory snapshot storage for the simulator."""

    def __init__(self) -> None:
        self._state: Optional[Any] = None
        self.saves = 0

    def save(self, state: Any) -> None:
        self._state = state
        self.saves += 1

    def load(self) -> Optional[Any]:
        return self._state


class SnapshotManager:
    """Compacts a WAL into snapshots once it grows past a record threshold.

    Owned by a :class:`~repro.persist.durable.DurableServer`; after every
    appended batch the server asks :meth:`maybe_compact`, which — once the log
    holds at least *compact_every* records — serializes the server's exported
    state into the snapshot store and resets the log.  The snapshot is written
    *before* the log is truncated, so a crash between the two steps merely
    replays records the snapshot already covers (replay is idempotent).
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

    def maybe_compact(self, export_state: Callable[[], Any]) -> bool:
        """Snapshot via the *export_state* callable if the log is due; returns
        whether a compaction ran."""
        if self.wal.record_count < self.compact_every:
            return False
        self.store.save(export_state())
        self.wal.reset()
        self.compactions += 1
        return True
