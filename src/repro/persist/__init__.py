"""Durability subsystem: write-ahead logging, snapshots, crash recovery.

The paper's fault model counts a crashed server against the resilience bound
``t`` forever; this package turns a crash into a *recoverable* event.  Servers
write-ahead log every change of their durable ``pw/w/vw`` register state
(:mod:`repro.persist.wal`), compact the log into checksummed snapshots once
it outweighs the last one (:mod:`repro.persist.snapshot`), and rejoin after a
crash with their pre-crash state replayed (:mod:`repro.persist.durable`) — so
a schedule may crash more than ``t`` *distinct* servers over a run and the
store stays atomic as long as at most ``t`` are down *simultaneously*.  Every
byte goes through a disk (:mod:`repro.persist.disk`): the OS file system on
the asyncio runtime, a :class:`~repro.persist.disk.MemoryDisk` per server in
the simulator.
"""

from .disk import MemoryDisk
from .durable import (
    DurableServer,
    export_server_state,
    make_durable,
    replay_records,
    restore_server_state,
    storage_registers,
)
from .snapshot import FileSnapshot, SnapshotCorruptError, SnapshotManager
from .wal import WAL_FIELDS, MemoryWAL, WalRecord, WriteAheadLog

__all__ = [
    "DurableServer",
    "FileSnapshot",
    "MemoryDisk",
    "MemoryWAL",
    "SnapshotCorruptError",
    "SnapshotManager",
    "WAL_FIELDS",
    "WalRecord",
    "WriteAheadLog",
    "export_server_state",
    "make_durable",
    "replay_records",
    "restore_server_state",
    "storage_registers",
]
