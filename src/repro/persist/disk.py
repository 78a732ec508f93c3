"""The byte disk a durable server's files live on.

Everything :mod:`repro.persist` writes — the WAL, the snapshot, the ``.epoch``
incarnation sidecar — goes through a disk, which has two implementations:

* :data:`OS_DISK`, the operating system's file system.  A log is a kept-open
  append handle that each append writes, flushes and (unless the log defers
  it) fsyncs; a truncation is fsync'd; a whole-file write is
  :meth:`OSDisk.write_atomically` (temp file, fsync, replace, directory fsync).
* :class:`MemoryDisk`, which holds each path's bytes with the prefix of them
  that is synced.  The simulator's durable servers write here, so their
  recovery reads, checksums and truncates the same bytes a deployment's
  would; :meth:`MemoryDisk.crash` keeps what a crash keeps.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Dict, Mapping, Optional, Union


class OSAppendFile:
    """A log's kept-open append handle on the OS disk."""

    def __init__(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file: BinaryIO = open(path, "ab")

    def write(self, data: bytes, sync: bool) -> None:
        self._file.write(data)
        self._file.flush()
        if sync:
            os.fsync(self._file.fileno())

    def truncate(self, length: int) -> None:
        # O_APPEND keeps landing later writes at the (new) end of the file.
        self._file.truncate(length)
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()


class OSDisk:
    """The operating system's file system."""

    def read(self, path: str) -> Optional[bytes]:
        """The bytes of *path*, or ``None`` when there is no such file."""
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def open_append(self, path: str) -> OSAppendFile:
        """An append handle on *path*, created (with its directory) if missing."""
        return OSAppendFile(path)

    def write_atomically(self, path: str, data: bytes) -> None:
        """Write *data* to *path* so a crash leaves either the old or new content.

        Temp file + fsync + ``os.replace`` + a *directory* fsync: without the
        last step the rename's directory entry itself may not survive a power
        failure, which matters when the caller's next action (e.g. truncating
        the WAL a snapshot just superseded) is an in-place write that *would*
        survive.
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


#: The one OS disk (it holds no state).
OS_DISK = OSDisk()


class MemoryDisk:
    """Files held in memory.  They outlive the objects that wrote them, as a
    disk outlives a process: a server reopened on the same disk reads only
    what is here.  An atomic write replaces the file, so a handle still open
    on the old one writes where nothing reads, as on the OS."""

    class File:
        """One file — its bytes, the first ``synced`` of them synced — and
        its own append handle.  A write that does not sync leaves an unsynced
        tail; a sync or a truncation syncs the whole file."""

        def __init__(self, data: bytes = b"") -> None:
            self.data = bytearray(data)
            self.synced = len(data)

        def write(self, data: bytes, sync: bool) -> None:
            self.data.extend(data)
            if sync:
                self.synced = len(self.data)

        def truncate(self, length: int) -> None:
            del self.data[length:]
            self.synced = len(self.data)

        def close(self) -> None:
            pass

    def __init__(self) -> None:
        self.files: Dict[str, MemoryDisk.File] = {}

    def read(self, path: str) -> Optional[bytes]:
        file = self.files.get(path)
        return None if file is None else bytes(file.data)

    def open_append(self, path: str) -> MemoryDisk.File:
        return self.files.setdefault(path, MemoryDisk.File())

    def write_atomically(self, path: str, data: bytes) -> None:
        self.files[path] = MemoryDisk.File(data)

    def crash(self, keep: Optional[Mapping[str, int]] = None) -> None:
        """Lose every unsynced tail but the first ``keep[path]`` bytes of it
        (default none): what a file holds after a crash is its synced prefix
        plus any prefix of what was written since."""
        for path, file in self.files.items():
            kept = keep.get(path, 0) if keep else 0
            file.truncate(min(len(file.data), file.synced + kept))


#: What a durable server's files live on.
Disk = Union[OSDisk, MemoryDisk]
#: A log's append handle on either disk.
AppendFile = Union[OSAppendFile, MemoryDisk.File]
