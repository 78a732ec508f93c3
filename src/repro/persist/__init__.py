"""Durability subsystem: write-ahead logging, snapshots, crash recovery.

The paper's fault model counts a crashed server against the resilience bound
``t`` forever; this package turns a crash into a *recoverable* event.  Servers
write-ahead log every change of their durable ``pw/w/vw`` register state
(:mod:`repro.persist.wal`), periodically compact the log into checksummed
snapshots (:mod:`repro.persist.snapshot`), and rejoin after a crash with their
pre-crash state replayed (:mod:`repro.persist.durable`) — so a schedule may
crash more than ``t`` *distinct* servers over a run and the store stays atomic
as long as at most ``t`` are down *simultaneously*.
"""

from .durable import (
    DurableServer,
    export_server_state,
    recover_server,
    replay_records,
    restore_server_state,
    storage_registers,
)
from .snapshot import FileSnapshot, MemorySnapshot, SnapshotCorruptError, SnapshotManager
from .wal import WAL_FIELDS, MemoryWAL, WalRecord, WriteAheadLog

__all__ = [
    "DurableServer",
    "FileSnapshot",
    "MemorySnapshot",
    "MemoryWAL",
    "SnapshotCorruptError",
    "SnapshotManager",
    "WAL_FIELDS",
    "WalRecord",
    "WriteAheadLog",
    "export_server_state",
    "recover_server",
    "replay_records",
    "restore_server_state",
    "storage_registers",
]
