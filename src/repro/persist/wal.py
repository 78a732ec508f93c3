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

:class:`MemoryWAL` is the in-memory twin the deterministic simulator uses: the
same record API without filesystem side effects, plus :meth:`MemoryWAL.drop_tail`
to *model* a torn tail (records a crash caught before their fsync).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, List, Optional, Protocol, Sequence, Tuple

from ..core.types import SlotsPickleMixin, slot_init
from ..wire import decode_payload, encode_payload, register_struct

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


class WalLike(Protocol):
    """The record-log API the durability layer programs against.

    Satisfied structurally by both :class:`WriteAheadLog` (file-backed) and
    :class:`MemoryWAL` (simulator) — the durable wrapper and the snapshot
    compactor never care which one they hold.
    """

    def append(self, records: Sequence[WalRecord]) -> None: ...

    def replay(self, truncate: bool = True) -> List[WalRecord]: ...

    def reset(self) -> None: ...

    def close(self) -> None: ...

    @property
    def record_count(self) -> int: ...


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


class WriteAheadLog:
    """Append-only, checksummed, fsync-per-batch log backed by a real file."""

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        #: Diagnostics: how many records / fsync'd batches this handle wrote.
        self.records_appended = 0
        self.batches_appended = 0
        #: Cached count of intact records in the log; populated lazily by the
        #: first :attr:`record_count` read (one full replay) and maintained
        #: incrementally afterwards, so compaction checks stay O(1).
        self._count: Optional[int] = None
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file: Optional[BinaryIO] = open(path, "ab")

    # ---------------------------------------------------------------- append
    def append(self, records: Sequence[WalRecord]) -> None:
        """Durably append *records* as one batch (one flush + fsync)."""
        if not records:
            return
        if self._file is None:
            raise ValueError(f"WAL {self.path} is closed")
        self._file.write(b"".join([frame_payload(encode_payload(record)) for record in records]))
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
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
        if self._file is not None:
            self._file.flush()
        with open(self.path, "rb") as fh:
            data = fh.read()
        records, good_length = decode_frames(data)
        if truncate and good_length < len(data):
            self._truncate_to(good_length)
        self._count = len(records)
        return records

    def _truncate_to(self, length: int) -> None:
        if self._file is not None:
            # The append handle truncates in place: O_APPEND keeps landing
            # later writes at the (new) end of the file.
            self._file.truncate(length)
            os.fsync(self._file.fileno())
            return
        with open(self.path, "r+b") as fh:
            fh.truncate(length)
            fh.flush()
            os.fsync(fh.fileno())

    # ----------------------------------------------------------- maintenance
    def reset(self) -> None:
        """Empty the log (called right after a snapshot made it redundant)."""
        self._truncate_to(0)
        self._count = 0

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


class MemoryWAL:
    """In-memory WAL with the same API, for the deterministic simulator.

    The simulator injects crashes at event granularity, so a "torn tail" never
    arises naturally; :meth:`drop_tail` models it — a
    :class:`~repro.sim.failures.CrashWindow` may declare that a crash loses its
    last N appended records (they were written but their batch
    had not fsync'd yet).
    """

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        self.records_appended = 0
        self.batches_appended = 0
        self.records_dropped = 0

    def append(self, records: Sequence[WalRecord]) -> None:
        if not records:
            return
        self._records.extend(records)
        self.records_appended += len(records)
        self.batches_appended += 1

    def replay(self, truncate: bool = True) -> List[WalRecord]:
        return list(self._records)

    def drop_tail(self, count: int) -> int:
        """Lose the last *count* records (simulated un-fsynced tail); returns
        how many were actually dropped."""
        if count <= 0:
            return 0
        dropped = min(count, len(self._records))
        if dropped:
            del self._records[len(self._records) - dropped :]
        self.records_dropped += dropped
        return dropped

    def reset(self) -> None:
        self._records.clear()

    @property
    def record_count(self) -> int:
        return len(self._records)

    def close(self) -> None:  # pragma: no cover - interface symmetry
        pass
