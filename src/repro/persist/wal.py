"""Write-ahead log of durable server state.

Every state change a server's three timestamp-value registers undergo is
recorded as a :class:`WalRecord` ``(register_id, ts, writer_id, value, field)``
with ``field ∈ {pw, w, vw}``.  Records are framed on disk as::

    [4-byte little-endian payload length][4-byte CRC32 of payload][payload]

where the payload is the versioned binary encoding of the record (the same
wire codec the transports speak, :mod:`repro.wire`) — magic + version byte
first; a payload that does not open with the wire magic is not a record and
ends the log like any corrupt frame (a CRC32 protects against torn writes,
not against a crafted file, so nothing here ever unpickles).  The log is
strictly append-only; appends are *batch-grouped*: one
:meth:`WriteAheadLog.append` call writes any number of records and ends in a
single ``flush`` + ``fsync`` — the durability point.
The batching layer of PR 2 is what makes this cheap: a server handles a whole
message batch per flush boundary, so the WAL pays one fsync per *batch*, not
per message.

:meth:`WriteAheadLog.replay` tolerates a *torn tail*: a crash mid-append can
leave a truncated or corrupt final frame, which replay detects (short frame or
CRC mismatch), drops, and physically truncates away so later appends extend a
clean prefix.  Corruption is treated as the end of the log — everything after
the first bad frame is discarded, which is the safe choice for an append-only
log (a frame boundary cannot be trusted past a bad checksum).

The log's bytes live on a :mod:`disk <repro.persist.disk>`: the OS file system
by default, a :class:`~repro.persist.disk.MemoryDisk` in the simulator.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..core.types import SlotsPickleMixin, slot_init
from ..wire import decode_payload, encode_payload, register_struct
from .disk import OS_DISK, AppendFile, Disk, MemoryDisk

#: Fields of a server a WAL record may target.
WAL_FIELDS = ("pw", "w", "vw")

_HEADER = struct.Struct("<II")


@slot_init
@dataclass(frozen=True, slots=True)
class WalRecord(SlotsPickleMixin):
    """One durable state change: *field* of *register_id* advanced to a pair."""

    register_id: str
    field: str  # "pw" | "w" | "vw"
    ts: int
    writer_id: str
    value: Any

    def __post_init__(self) -> None:
        if self.field not in WAL_FIELDS:
            raise ValueError(
                f"WAL field must be one of {WAL_FIELDS}, not {self.field!r}"
            )


# Wire-format struct tag of WalRecord (permanent; 0x10-0x13 are the core
# types, registered in repro.wire.values).
register_struct(0x18, WalRecord)


def frame_payload(payload: bytes) -> bytes:
    """One length+CRC32-framed chunk (shared by WAL records and snapshots)."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe_payload(data: bytes, offset: int = 0) -> Optional[Tuple[bytes, int]]:
    """Decode the frame at *offset*: ``(payload, end_offset)``, or ``None``
    when the frame is torn (short header/payload) or fails its checksum."""
    if offset + _HEADER.size > len(data):
        return None
    length, checksum = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    end = start + length
    if end > len(data):
        return None
    payload = data[start:end]
    if zlib.crc32(payload) != checksum:
        return None
    return payload, end


def encode_frame(record: WalRecord) -> bytes:
    """Frame one record: length + CRC32 header followed by its versioned
    binary payload."""
    return frame_payload(encode_payload(record))


def decode_record_payload(payload: bytes) -> Optional[WalRecord]:
    """Decode one frame payload, or ``None`` when it is not a record in the
    binary wire encoding (the decoder checks the magic first)."""
    try:
        record = decode_payload(payload)
    except Exception:
        return None
    return record if isinstance(record, WalRecord) else None


def decode_frames(data: bytes) -> Tuple[List[WalRecord], int]:
    """Decode every intact frame of *data*; returns ``(records, good_length)``.

    Decoding stops at the first bad frame — short header, short payload or
    CRC mismatch — and reports the byte length of the clean prefix, which is
    what recovery truncates the log to.
    """
    records: List[WalRecord] = []
    offset = 0
    while True:
        frame = unframe_payload(data, offset)
        if frame is None:
            break  # torn or corrupt: everything past it is untrustworthy
        payload, end = frame
        record = decode_record_payload(payload)
        if record is None:
            break
        records.append(record)
        offset = end
    return records, offset


def tear_tail(disk: MemoryDisk, path: str, records: int) -> None:
    """Cut the log at *path* through the middle of its *records*-th frame
    from the end (the first frame when it holds fewer): a torn tail whose
    truncation on replay drops exactly that many records, or all of them."""
    data = disk.read(path) or b""
    ends = [0]
    while (frame := unframe_payload(data, ends[-1])) is not None:
        ends.append(frame[1])
    if records > 0 and len(ends) > 1:
        first = max(0, len(ends) - 1 - records)
        disk.files[path].truncate((ends[first] + ends[first + 1]) // 2)


class WriteAheadLog:
    """Append-only, checksummed, fsync-per-batch log of one file on *disk*."""

    def __init__(self, path: str, fsync: bool = True, disk: Disk = OS_DISK) -> None:
        self.path = path
        self.fsync = fsync
        self.disk = disk
        #: Diagnostics: how many records / fsync'd batches this handle wrote.
        self.records_appended = 0
        self.batches_appended = 0
        #: Cached count of intact records in the log; populated lazily by the
        #: first :attr:`record_count` read (one full replay) and maintained
        #: incrementally afterwards, so compaction checks stay O(1).
        self._count: Optional[int] = None
        self._file: Optional[AppendFile] = disk.open_append(path)

    # ---------------------------------------------------------------- append
    def append(self, records: Sequence[WalRecord]) -> None:
        """Durably append *records* as one batch (one flush + fsync)."""
        if not records:
            return
        self._handle().write(
            b"".join([frame_payload(encode_payload(record)) for record in records]), self.fsync
        )
        self.records_appended += len(records)
        self.batches_appended += 1
        if self._count is not None:
            self._count += len(records)

    # ---------------------------------------------------------------- replay
    def replay(self, truncate: bool = True) -> List[WalRecord]:
        """All intact records from the start of the log, in append order.

        A torn or corrupt tail is dropped; with *truncate* (the default for
        recovery) the file is also physically cut back to the clean prefix so
        subsequent appends extend a well-formed log.
        """
        data = self.disk.read(self.path) or b""
        records, good_length = decode_frames(data)
        if truncate and good_length < len(data):
            self._handle().truncate(good_length)
        self._count = len(records)
        return records

    # ----------------------------------------------------------- maintenance
    def reset(self) -> None:
        """Empty the log (called right after a snapshot made it redundant)."""
        self._handle().truncate(0)
        self._count = 0

    def _handle(self) -> AppendFile:
        if self._file is None:
            raise ValueError(f"WAL {self.path} is closed")
        return self._file

    @property
    def record_count(self) -> int:
        """Number of intact records currently in the log (O(1) once known)."""
        if self._count is None:
            self._count = len(self.replay(truncate=False))
        return self._count

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def MemoryWAL() -> WriteAheadLog:
    """A log on a fresh :class:`~repro.persist.disk.MemoryDisk` (kept for
    ``benchmarks/e2e``, which binds this name)."""
    return WriteAheadLog("memory.wal", disk=MemoryDisk())
