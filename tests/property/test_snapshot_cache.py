"""The snapshot store's per-register byte cache can never serve stale bytes.

A compaction re-encodes only the registers that received a message or a timer
since the last snapshot and assembles the rest from cached bytes.  The
reference it must equal — byte for byte, at *every* compaction — is the full
re-encode it replaced: ``encode_snapshot(export_server_state(server))``.  The
property drives random PW / W / READ streams (both READ rounds, several
readers, stale and batched messages, registers created, dropped, evicted and
rehydrated in between) through small ``compact_every`` values so that a
schedule of a few dozen messages crosses many compactions; the directed cases
pin the windows a "did a WAL record get written" trigger would miss.
"""

import os
import tempfile
from collections import defaultdict
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.messages import PreWrite, Read, Write
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import FreezeDirective, TimestampValue
from repro.persist.disk import OS_DISK, MemoryDisk, OSDisk
from repro.persist.durable import (
    export_server_state,
    held_register_ids,
    make_durable,
    storage_registers,
)
from repro.persist.snapshot import FileSnapshot, encode_snapshot
from repro.sim.failures import FailureSchedule
from repro.store.sharding import ShardedProtocol
from repro.store.sim import ShardedSimStore

CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0)
KEYS = ["k0", "k1", "k2", "k3", "k4"]
READERS = ["r1", "r2", "r3"]


def check_every_save(patch, owners, key) -> Dict[object, List[float]]:
    """Make every ``FileSnapshot.save`` compare what it wrote with the full
    export of the durable server that owns the store — the one of
    ``owners()`` at that moment whose snapshot manager holds it, so a
    recovered incarnation's new store is checked too.  Returns ``key(server)``
    → the share of registers re-encoded per compaction."""
    original = FileSnapshot.save
    shares: Dict[object, List[float]] = defaultdict(list)

    def save(store, changed, live=None):
        original(store, changed, live)
        [durable] = [
            server
            for server in owners()
            if getattr(server, "snapshots", None) and server.snapshots.store is store
        ]
        expected = export_server_state(durable.inner)
        loaded = store.load()
        assert loaded == expected
        assert list(loaded) == list(expected)  # same register order
        assert store.disk.read(store.path) == encode_snapshot(expected)
        shares[key(durable)].append(len(changed) / max(1, len(live)))

    patch.setattr(FileSnapshot, "save", save)
    return shares


def resident(server, keys):
    """*server* with *keys* admitted, as if each had already been asked about."""
    for key in keys:
        assert server.ensure_register(key) is not None
    return server


class Driver:
    """Feeds one message stream to two durable servers over identical sharded
    servers, opened by the same ``make_durable``: one on the OS disk under
    *wal_dir*, one on a :class:`~repro.persist.disk.MemoryDisk`.  Both stores
    are checked at every save, and after every event the two disks hold the
    same WAL and snapshot bytes.  The servers start with *admitted* resident,
    so a directed case can count in fifths; ``()`` starts them as a
    deployment does, empty."""

    def __init__(self, wal_dir, compact_every, patch, max_resident=None, admitted=KEYS):
        self.suites = [
            ShardedProtocol(LuckyAtomicProtocol(CONFIG), list(KEYS), max_resident=max_resident)
            for _ in range(2)
        ]
        self.wal_dir = wal_dir
        self.disk = MemoryDisk()
        self.file = make_durable(
            resident(self.suites[0].create_server("s1"), admitted),
            wal_dir,
            compact_every=compact_every,
        )
        self.memory = make_durable(
            resident(self.suites[1].create_server("s1"), admitted),
            "",
            compact_every=compact_every,
            disk=self.disk,
        )
        self.servers = [self.file, self.memory]
        self.shares = check_every_save(patch, lambda: self.servers, self.servers.index)
        self.ts = {}
        self.read_ts = 0

    def assert_same_bytes(self):
        for name in ("s1.wal", "s1.snapshot"):
            assert OS_DISK.read(os.path.join(self.wal_dir, name)) == self.disk.read(name), name

    def pair(self, key, ts):
        return TimestampValue(ts, f"{key}@{ts}")

    def deliver(self, message):
        for server in self.servers:
            server.handle_message(message)

    def apply(self, event):
        self.step(event)
        self.assert_same_bytes()

    def step(self, event):
        kind, key = event[0], event[1]
        if kind == "pw":
            ts = self.ts[key] = self.ts.get(key, 0) + 1
            frozen = ()
            if event[2] is not None:  # a freeze directive rides on the PW
                frozen = (FreezeDirective(event[2], self.pair(key, ts - 1), self.read_ts),)
            self.deliver(
                PreWrite(
                    sender="w",
                    register_id=key,
                    ts=ts,
                    pw=self.pair(key, ts),
                    w=self.pair(key, ts - 1),
                    frozen=frozen,
                )
            )
        elif kind == "w":
            ts = self.ts.get(key, 0)
            self.deliver(
                Write(sender="w", register_id=key, round=event[2], ts=ts, pair=self.pair(key, ts))
            )
        elif kind == "stale":  # an old PW: changes nothing, logs nothing
            old = self.pair(key, 0)
            self.deliver(PreWrite(sender="w", register_id=key, ts=0, pw=old, w=old))
        elif kind == "read":
            self.read_ts += 1
            self.deliver(
                Read(sender=event[2], register_id=key, read_ts=self.read_ts, round=event[3])
            )
        elif kind == "create":
            for suite in self.suites:
                if key not in suite.specs:
                    suite.create_register(key)
        elif kind == "drop":
            for suite, server in zip(self.suites, self.servers, strict=True):
                if key in suite.specs:
                    suite.drop_register(key)
                    storage_router(server).discard_register(key)
            self.ts.pop(key, None)
        elif kind == "batch":
            with self.file.append_batch(), self.memory.append_batch():
                for inner in event[1]:
                    self.step(inner)

    @property
    def compactions(self):
        return self.file.snapshots.compactions


def storage_router(durable):
    router = durable.inner
    while hasattr(router, "inner"):
        router = router.inner
    return router


ALL_KEYS = st.sampled_from(KEYS + ["extra0", "extra1"])
MESSAGES = st.one_of(
    st.tuples(st.just("pw"), ALL_KEYS, st.one_of(st.none(), st.sampled_from(READERS))),
    st.tuples(st.just("w"), ALL_KEYS, st.sampled_from([2, 3])),
    st.tuples(st.just("stale"), ALL_KEYS),
    st.tuples(st.just("read"), ALL_KEYS, st.sampled_from(READERS), st.sampled_from([1, 2])),
)
# Mostly messages: keyspace churn makes the next snapshot complete, and the
# incremental ones in between are where a stale byte could hide.
EVENTS = st.one_of(
    *[MESSAGES] * 8,
    st.tuples(st.just("batch"), st.lists(MESSAGES, min_size=1, max_size=5)),
    st.tuples(st.just("create"), st.sampled_from(["extra0", "extra1"])),
    st.tuples(st.just("drop"), ALL_KEYS),
)


@given(
    events=st.lists(EVENTS, min_size=30, max_size=90),
    compact_every=st.integers(min_value=1, max_value=5),
    max_resident=st.one_of(st.none(), st.none(), st.integers(min_value=3, max_value=6)),
    admitted=st.sampled_from([(), (), tuple(KEYS)]),
)
@settings(max_examples=100, deadline=None)
def test_every_compaction_equals_the_full_reencode(events, compact_every, max_resident, admitted):
    with tempfile.TemporaryDirectory() as wal_dir, pytest.MonkeyPatch.context() as patch:
        driver = Driver(
            wal_dir, compact_every, patch, max_resident=max_resident, admitted=admitted
        )
        try:
            for event in events:
                driver.apply(event)
            # Both stores compacted at the same points of the same stream.
            assert driver.memory.snapshots.compactions == driver.compactions
            assert len(driver.shares[0]) == driver.compactions
            assert driver.shares[0] == driver.shares[1]
        finally:
            driver.file.wal.close()


@pytest.fixture
def driver(tmp_path, monkeypatch):
    made = []

    def make(compact_every, **kwargs):
        made.append(Driver(str(tmp_path), compact_every, monkeypatch, **kwargs))
        return made[-1]

    yield make
    for each in made:
        each.file.wal.close()


def test_read_only_window_reaches_the_next_snapshot(driver):
    """READs write no WAL record but move ``read_ts`` / ``frozen``: a register
    only READ since the last snapshot must still be re-encoded."""
    d = driver(compact_every=2)
    d.apply(("pw", "k0", None))
    d.apply(("pw", "k1", None))  # 2 records: first (complete) snapshot
    assert d.compactions == 1
    records = d.file.wal.record_count
    d.apply(("read", "k0", "r1", 2))  # read_ts moves
    d.apply(("read", "k3", "r2", 1))  # a new reader is admitted
    assert d.file.wal.record_count == records  # nothing logged
    d.apply(("pw", "k2", None))
    d.apply(("pw", "k2", None))
    assert d.compactions == 2
    assert d.shares[0][-1] == 3 / 5  # k0, k3 and k2 — not k1, k4
    state = d.file.snapshots.store.load()
    assert state["k0"]["read_ts"]["r1"] == 1
    assert "r2" in state["k3"]["frozen"]


def test_keyspace_churn_between_compactions(driver):
    """create / drop / LRU eviction / rehydration move single registers: each
    snapshot across them still equals the full re-encode, in the LRU table's
    order."""
    d = driver(compact_every=3, max_resident=3)
    for key in KEYS + KEYS:  # five keys through three slots: evict + rehydrate
        d.apply(("pw", key, None))
    d.apply(("drop", "k4"))
    d.apply(("create", "extra0"))
    for key in ["extra0", "k0", "k4", "extra0", "k1", "k0"]:
        d.apply(("pw", key, None))
        d.apply(("read", key, "r1", 2))
    router = storage_router(d.file)
    assert router.evictions > 0 and router.rehydrations > 0
    assert d.compactions >= 5
    # A quiet stretch on a stable table is incremental again: one changed
    # register of the five held (three resident, two spilled).
    resident = list(router.registers)
    assert len(held_register_ids(router)) == 5
    for _ in range(3):
        d.apply(("pw", resident[-1], None))
    assert d.shares[0][-1] == 1 / 5


def test_fresh_admissions_cost_themselves_not_the_table(driver):
    """A register admitted since the last snapshot is one more changed
    register; the resident ones nobody touched still come from cached bytes."""
    d = driver(compact_every=2)
    d.apply(("pw", "k0", None))
    d.apply(("pw", "k0", None))
    assert d.compactions == 1 and d.shares[0][-1] == 1.0
    for key in ("extra0", "extra1"):
        d.apply(("create", key))
        d.apply(("read", key, "r1", 1))  # admitted by a message that logs nothing
    d.apply(("pw", "k1", None))
    d.apply(("pw", "k1", None))
    assert d.compactions == 2
    assert list(d.file.snapshots.store.load()) == KEYS + ["extra0", "extra1"]
    assert d.shares[0][-1] == 3 / 7  # the two admitted and k1 — not k0, k2, k3, k4


def test_register_replaced_without_a_message_is_not_served_from_the_cache(driver):
    """Message-tracking alone would miss a register that is dropped, recreated
    and admitted through the router's hook with no message in between; the
    admission itself marks it."""
    d = driver(compact_every=2)
    d.apply(("pw", "k3", None))
    d.apply(("pw", "k3", None))
    assert d.compactions == 1 and d.file.snapshots.store.load()["k3"]["pw"].ts == 2
    d.apply(("drop", "k3"))
    d.apply(("create", "k3"))
    for server in d.servers:
        assert storage_router(server).ensure_register("k3") is not None
    d.apply(("pw", "k0", None))
    d.apply(("pw", "k0", None))
    assert d.compactions == 2
    assert d.file.snapshots.store.load()["k3"]["pw"].ts == 0  # the fresh register
    assert d.shares[0][-1] == 2 / 5  # k3 and k0: that id moved, not the table


def test_first_snapshot_after_recovery_is_complete(tmp_path, monkeypatch):
    suite = ShardedProtocol(LuckyAtomicProtocol(CONFIG), KEYS)

    def pw(server, key, ts):
        server.handle_message(
            PreWrite(
                sender="w",
                register_id=key,
                ts=ts,
                pw=TimestampValue(ts, f"{key}@{ts}"),
                w=TimestampValue(ts - 1, f"{key}@{ts - 1}"),
            )
        )

    first = make_durable(resident(suite.create_server("s1"), KEYS), str(tmp_path), compact_every=4)
    for ts in range(1, 4):
        pw(first, "k0", ts)
        pw(first, "k1", ts)
    assert first.snapshots.compactions >= 1 and first.wal.record_count > 0
    first.wal.close()

    recovered = make_durable(suite.create_server("s1"), str(tmp_path), compact_every=4)
    assert recovered.incarnation == 1
    assert storage_registers(recovered)["k1"].pw.ts == 3
    shares = check_every_save(monkeypatch, lambda: [recovered], lambda server: "s1")["s1"]
    for ts in range(4, 9):
        pw(recovered, "k2", ts)
    recovered.wal.close()
    # The new incarnation's store starts with no cached bytes: its first
    # snapshot re-encodes everything, later ones only what was touched.
    assert shares[0] == 1.0
    assert shares[-1] == 1 / 5


def test_failed_save_keeps_the_log_and_the_next_file_is_complete(driver, monkeypatch):
    d = driver(compact_every=2)
    d.apply(("pw", "k0", None))
    d.apply(("pw", "k0", None))
    assert d.compactions == 1

    real_write = OSDisk.write_atomically
    calls = []

    def failing_once(disk, path, data):
        calls.append(path)
        if len(calls) == 1:
            raise OSError("no space left on device")
        real_write(disk, path, data)

    monkeypatch.setattr(OSDisk, "write_atomically", failing_once)
    d.apply(("read", "k1", "r1", 2))
    d.file.handle_message(
        PreWrite(sender="w", register_id="k2", ts=1, pw=d.pair("k2", 1), w=d.pair("k2", 0))
    )
    with pytest.raises(OSError):
        d.file.handle_message(
            PreWrite(sender="w", register_id="k3", ts=1, pw=d.pair("k3", 1), w=d.pair("k3", 0))
        )
    # Snapshot-before-reset: the log the failed snapshot would have replaced
    # is intact, and the previous snapshot file still decodes.
    assert d.file.wal.record_count == 2
    assert d.compactions == 1
    assert d.file.snapshots.store.load()["k0"]["pw"].ts == 2
    # The next append is due again; its file (checked against the full
    # re-encode by the store hook) carries k1, k2 and k3 as well as k4.
    d.file.handle_message(
        PreWrite(sender="w", register_id="k4", ts=1, pw=d.pair("k4", 1), w=d.pair("k4", 0))
    )
    assert d.compactions == 2
    assert d.file.wal.record_count == 0
    assert d.shares[0][-1] == 4 / 5


def test_the_simulator_checks_every_incarnations_snapshots(monkeypatch):
    """The simulator's servers snapshot through the same store; the check
    follows each recovery to the new incarnation's store, and a
    crash-recovery schedule over incremental snapshots still checks atomic."""
    schedule = (
        FailureSchedule()
        .crash("s1", at=30.0, recover_at=42.0)
        .crash("s2", at=70.0, recover_at=80.0, lose_tail=2)
    )
    store = ShardedSimStore(
        LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0)),
        keys=KEYS,
        failures=schedule,
        durable=True,
        compact_every=3,
    )
    shares = check_every_save(
        monkeypatch,
        lambda: store.processes.values(),
        lambda server: (server.process_id, server.incarnation),
    )
    for index in range(36):
        key = KEYS[index % 3]
        store.write(key, f"{key}-{index}")
        if index % 4 == 0:
            store.read(KEYS[(index + 1) % 5], "r1")  # READ-only traffic on k3/k4
        store.run_for(2.0)
    store.run_until_quiescent()
    assert store.incarnation("s1") == 1 and store.incarnation("s2") == 1
    for server_id in store.config.server_ids():
        before, after = shares[(server_id, 0)], shares[(server_id, 1)]
        assert len(before + after) > 3, server_id
        assert min(before + after) < 1.0, server_id  # incremental, not always full
        if server_id in ("s1", "s2"):
            assert before, server_id
            assert after[0] == 1.0, server_id  # a new store has no cached bytes
        else:
            assert not after, server_id  # never crashed: one incarnation
    assert store.verify_atomic()
