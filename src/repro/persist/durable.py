"""Durability wrapper: a server automaton whose state survives crashes.

:class:`DurableServer` wraps any server automaton (a plain
:class:`~repro.core.server.StorageServer`, a Byzantine-wrapped one, or a
:class:`~repro.store.sharding.ShardedServer` hosting many registers) and logs
every ``pw/w/vw`` pair a step reports advanced (``Effects.advanced``, filled
by :meth:`~repro.core.server.PairRegister.advance`) to a write-ahead log
*before* the acknowledgement that reports the change leaves the process — the
classic write-ahead discipline.  Handling one input is one append batch, and
since the batching layer delivers a whole message batch per flush boundary,
the file WAL pays one fsync per batch.

Every durable server is opened by :func:`make_durable`, on both runtimes: it
restores the latest snapshot from its disk into a fresh automaton, replays the
WAL suffix and returns a :class:`DurableServer` under the next *incarnation*
(0 for a first start, whose files are empty; bumped on every recovery).
Outgoing messages are stamped with the incarnation (``Message.epoch``), which
is what lets clients — and the simulator on their behalf — reject
acknowledgements a pre-crash incarnation sent for state the torn WAL tail may
have lost.

What is (and is not) write-ahead logged
---------------------------------------
The WAL carries only the three timestamp-value registers ``pw/w/vw`` — the
state quorum intersection arguments are built on.  The per-reader bookkeeping
(``read_ts``, ``frozen``) is captured by *snapshots* when compaction is
enabled but is not logged per message, and may therefore rewind on recovery.
That is safe: a recovered server's ``INITIAL_FROZEN`` entry carries a read
timestamp that cannot match any live READ's announced ``tsr`` (freeze entries
only count towards ``safeFrozen`` when their read timestamp matches exactly),
so a rewound server contributes *nothing* to a frozen candidate instead of a
wrong value; and readers re-announce their ``tsr`` on every slow round, so
``read_ts``/``newread`` regenerate.  The cost of the rewind is at worst extra
rounds for a concurrent slow READ — never a stale return value.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set

from ..core.automaton import Automaton, Effects, Send
from ..core.messages import Message
from ..core.types import TimestampValue
from .disk import OS_DISK, Disk
from .snapshot import FileSnapshot, SnapshotDelta, SnapshotManager, decode_register, encode_register
from .wal import WalRecord, WriteAheadLog


def storage_registers(server: Automaton) -> Dict[str, Automaton]:
    """Map register id → the underlying storage automaton of *server*.

    Unwraps wrapper layers (:class:`DurableServer` itself, or a
    :class:`~repro.sim.byzantine.MaliciousServer` — the honest inner automaton
    carries the durable state) and expands a sharded server into its
    per-register instances; a single-register server maps from the default
    register id ``""``.
    """
    server = unwrap(server)
    registers = getattr(server, "registers", None)
    if registers is None:
        return {"": server}
    return {
        register_id: unwrap(automaton) for register_id, automaton in registers.items()
    }


def unwrap(automaton: Automaton) -> Automaton:
    """The innermost automaton of a wrapper stack (its ``inner`` chain)."""
    while hasattr(automaton, "inner"):
        automaton = automaton.inner
    return automaton


def notify_recovered(server: Automaton) -> None:
    """Tell every wrapper layer of *server* it is a recovered incarnation.

    Walks the whole automaton tree (wrapper ``inner`` chains and sharded
    ``registers`` maps) and invokes ``notify_recovered()`` wherever a layer
    defines it.  The lease layer uses this to open its post-recovery grace
    period: its volatile lease table died with the crash, so the recovered
    server must stay silent for one lease duration instead of acknowledging
    writes its forgotten holders still guard against.  A register router
    remembers it, and tells every register it admits later the same.
    """
    stack = [server]
    while stack:
        automaton = stack.pop()
        hook = getattr(automaton, "notify_recovered", None)
        if callable(hook):
            hook()
        inner = getattr(automaton, "inner", None)
        if inner is not None:
            stack.append(inner)
        registers = getattr(automaton, "registers", None)
        if registers:
            stack.extend(registers.values())


def held_register_ids(router: Automaton) -> List[str]:
    """Every register id the unwrapped server *router* holds state for, in
    snapshot order: the resident ones in the router's (LRU) order, then the
    ones it spilled, in eviction order.  A single-register server holds
    ``""``."""
    registers: Optional[Dict[str, Automaton]] = getattr(router, "registers", None)
    if registers is None:
        return [""]
    return [*registers, *router.spilled]  # type: ignore[attr-defined]


def export_server_state(server: Automaton) -> Dict[str, Dict[str, Any]]:
    """Every register's durable state: register id → state dict.

    What a snapshot holds: every register the server holds state for, in
    :func:`held_register_ids` order — a resident automaton's export, a
    spilled register's chunk decoded.  Compaction does not call this — it
    hands the store the chunks of only the registers that changed
    (:meth:`DurableServer._snapshot_delta`) — but its files are byte for byte
    the encoding of this function's result, which is what the tests compare
    them against.
    """
    router = unwrap(server)
    state = {
        register_id: storage.export_state()  # type: ignore[attr-defined]
        for register_id, storage in storage_registers(router).items()
    }
    for register_id, chunk in getattr(router, "spilled", {}).items():
        state[register_id] = decode_register(register_id, chunk)
    return state


def _storage(router: Automaton, register_id: str) -> Optional[Automaton]:
    """The storage automaton of *register_id* under *router* (an unwrapped
    server), admitted first if it is not resident: a router's
    ``ensure_register`` builds a register the keyspace knows — rehydrating
    what an eviction spilled — and answers ``None`` for one it does not.  A
    single-register server is its own storage, under the id ``""``.
    """
    ensure = getattr(router, "ensure_register", None)
    if ensure is None:
        return router if register_id == "" else None
    inner = ensure(register_id)
    return unwrap(inner) if inner is not None else None


def restore_server_state(server: Automaton, state: Dict[str, Dict[str, Any]]) -> None:
    """Adopt a snapshot produced by :func:`export_server_state`.

    *server* is freshly built, so every register the snapshot names is
    admitted here; an admission may rehydrate spilled state first, which is
    safe because ``restore_state`` merges monotonically.
    """
    router = unwrap(server)
    for register_id, register_state in state.items():
        storage = _storage(router, register_id)
        if storage is not None:
            storage.restore_state(register_state)  # type: ignore[attr-defined]


def replay_records(server: Automaton, records: Sequence[WalRecord]) -> None:
    """Replay *records* in order; monotone updates make this idempotent.

    Each record is one field of a register's state, adopted through
    ``restore_state``.  Like :func:`restore_server_state`, a record for a
    register that is not resident admits it — rehydration first, then the
    (newer) logged pairs on top.
    """
    router = unwrap(server)
    for record in records:
        storage = _storage(router, record.register_id)
        if storage is not None:
            pair = TimestampValue(record.ts, record.value, record.writer_id)
            storage.restore_state({record.field: pair})  # type: ignore[attr-defined]


class DurableServer(Automaton):
    """A server automaton whose ``pw/w/vw`` state is write-ahead logged.

    What reaches the log is what the wrapped storage registers report: every
    step's ``Effects.advanced`` entry ``(register_id, field, pair)`` becomes
    one :class:`WalRecord`, in the order the register advanced its fields.
    """

    def __init__(
        self,
        inner: Automaton,
        wal: WriteAheadLog,
        incarnation: int = 0,
        snapshots: Optional[SnapshotManager] = None,
    ) -> None:
        super().__init__(inner.process_id)
        self.inner = inner
        self.wal = wal
        self.incarnation = incarnation
        self.snapshots = snapshots
        #: Duck-typed: a register router, or a single-register server.
        self._router: Any = unwrap(inner)
        #: The router's register table; ``None`` for a single-register server.
        self._registers: Optional[Dict[str, Automaton]] = getattr(
            self._router, "registers", None
        )
        # Compaction costs what changed: the snapshot store keeps the chunk
        # of every register and is handed a new one only for the resident
        # registers that moved since the last snapshot — the ones the router
        # held after a message or a timer reached them (input, not "a WAL
        # record was written": a READ moves read_ts/frozen, which snapshots
        # carry and the WAL does not) and the ones it admitted, with or
        # without a message.  A spilled register's chunk is its spill, handed
        # over as it is.  The store of a new incarnation has no chunks yet,
        # so every resident register counts as moved.
        self._touched: Set[str] = set(self._registers or ())
        if self._registers is not None:
            self._router.on_admission = self._touched.add
        # When set (inside an append_batch() scope), records accumulate here
        # and reach the WAL in one append — one fsync per message batch.
        self._buffered: Optional[List[WalRecord]] = None

    # ---------------------------------------------------------- passthrough
    @property
    def batching(self) -> bool:
        """Whether the wrapped server participates in message batching."""
        return bool(getattr(self.inner, "batching", False))

    # -------------------------------------------------------------- durable IO
    def handle_message(self, message: Message) -> Effects:
        return self._step(message.register_id, self.inner.handle_message(message))

    def on_timer(self, timer_id: str) -> Effects:
        effects = self.inner.on_timer(timer_id)
        register_id = "" if self._registers is None else self._router.timer_register(timer_id)
        return self._step(register_id, effects)

    def _step(self, register_id: str, effects: Effects) -> Effects:
        """Mark *register_id* moved if the router holds it after the step (ids
        are peer-supplied: one it dropped marks nothing), log every pair the
        step reports advanced, and stamp the effects."""
        if self._registers is not None and register_id in self._registers:
            self._touched.add(register_id)
        if effects.advanced:
            records = [
                WalRecord(advanced_id, field, pair.ts, pair.writer_id, pair.val)
                for advanced_id, field, pair in effects.advanced
            ]
            if self._buffered is not None:
                # Inside an append_batch() scope: the whole message batch
                # reaches the WAL as one append when the scope closes.
                self._buffered.extend(records)
            else:
                # Write-ahead: the log reaches its durability point here,
                # before the acknowledgements below reach the transport.
                self._append(records)
        return self._stamp(effects)

    @contextmanager
    def append_batch(self) -> Iterator[None]:
        """Group the WAL appends of several messages into one fsync'd batch.

        The hosting runtime wraps the processing of a multi-message
        :class:`~repro.core.messages.Batch` frame in this scope; the records
        every inner message produced are appended (and fsync'd) together on
        exit — before the replies, which the batching layer buffers until the
        next flush boundary, reach the transport, so the write-ahead
        discipline is preserved.
        """
        if self._buffered is not None:  # nested scopes coalesce into one
            yield
            return
        self._buffered = []
        try:
            yield
        finally:
            records, self._buffered = self._buffered, None
            if records:
                self._append(records)

    def _append(self, records: List[WalRecord]) -> None:
        self.wal.append(records)
        if self.snapshots is not None and self.snapshots.maybe_compact(self._snapshot_delta):
            # Only now: a save that raised leaves its registers marked, so the
            # next compaction re-encodes them and its file is complete.
            self._touched.clear()

    def compact(self) -> None:
        """Compact now, due or not: snapshot what moved since the last
        snapshot, then empty the log."""
        if self.snapshots is None:
            raise ValueError(f"{self.process_id} does not compact (compact_every=None)")
        self.snapshots.compact(self._snapshot_delta)
        self._touched.clear()

    def _snapshot_delta(self) -> SnapshotDelta:
        """What the snapshot store needs to write a complete snapshot: the
        chunk of every resident register that moved since the last one and
        of every spilled register (its spill, the same object), and every
        held register id in snapshot order (an LRU touch reorders it).  A
        single-register server is one register that always moved."""
        router = self._router
        registers = self._registers
        if registers is None:
            return {"": encode_register("", router.export_state())}, [""]
        changed: Dict[str, bytes] = {}
        for register_id in self._touched:
            inner = registers.get(register_id)
            if inner is not None:  # not spilled or dropped since it moved
                state = unwrap(inner).export_state()  # type: ignore[attr-defined]
                changed[register_id] = encode_register(register_id, state)
        changed.update(router.spilled)
        return changed, held_register_ids(router)

    def _stamp(self, effects: Effects) -> Effects:
        """Stamp outgoing messages with this incarnation's epoch (the rest of
        the effects, ``advanced`` included, pass through)."""
        incarnation = self.incarnation
        if incarnation == 0:
            return effects
        sends = [Send(s.destination, s.message.with_epoch(incarnation)) for s in effects.sends]
        return Effects(
            sends, effects.timers, effects.completions, effects.cancels, effects.advanced
        )

    # ------------------------------------------------------------ inspection
    def describe(self) -> Dict[str, Any]:
        info = self.inner.describe()
        info["durable"] = {
            "incarnation": self.incarnation,
            "wal_records": self.wal.record_count,
        }
        return info


def make_durable(
    automaton: Automaton,
    wal_dir: str,
    compact_every: Optional[int] = 512,
    disk: Disk = OS_DISK,
) -> DurableServer:
    """Open the freshly built server *automaton* as the next incarnation of
    the durable server whose files are under *wal_dir* on *disk*.

    The one way a durable server comes to exist, first start or recovery, on
    either runtime.  Each call opens the process's WAL, snapshot and
    ``.epoch`` sidecar anew: the latest snapshot (if any) is restored into
    *automaton*, the surviving WAL records are replayed on top — a torn tail
    is truncated away — and the result logs to that WAL and compacts into
    that snapshot once the log holds *compact_every* records and at least as
    many bytes as the snapshot file (``None``: never; see
    :class:`~repro.persist.snapshot.SnapshotManager`).  Loading and replaying
    tell the snapshot store and the log their sizes, so a reopened server
    keeps that rule: a recovery replays at most the larger of one snapshot's
    worth of log and *compact_every* records, plus one append.  A sidecar
    left by a previous incarnation makes this a recovery
    under a bumped incarnation, which is told it is recovered (that opens the
    lease layer's grace window); a first start, on empty files, is
    incarnation 0.

    A snapshot that exists but does not decode raises
    :class:`~repro.persist.snapshot.SnapshotCorruptError`: the log it replaced
    is gone, and a server that refuses to start is a crash (which ``t``
    covers) while one that forgets acknowledged state is outside the model.
    """
    path = os.path.join(wal_dir, automaton.process_id)
    # The sidecar is written atomically below, so it holds a previous
    # incarnation number or is not there at all — never a torn write that
    # would regress the epoch and make peers' monotone fencing reject the
    # recovered server forever.
    epoch = disk.read(f"{path}.epoch")
    incarnation = 0 if epoch is None else int(epoch) + 1
    wal = WriteAheadLog(f"{path}.wal", disk=disk)
    store = FileSnapshot(f"{path}.snapshot", disk=disk)
    try:
        state = store.load()
        if state is not None:
            restore_server_state(automaton, state)
        replay_records(automaton, wal.replay())
    except BaseException:
        wal.close()  # a corrupt snapshot refuses the start: leak no handle
        raise
    if incarnation > 0:
        notify_recovered(automaton)
    snapshots = None if compact_every is None else SnapshotManager(store, wal, compact_every)
    disk.write_atomically(f"{path}.epoch", str(incarnation).encode("utf-8"))
    return DurableServer(automaton, wal, incarnation=incarnation, snapshots=snapshots)
