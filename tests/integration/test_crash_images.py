"""Crash images: recover a durable server from its files at every durability point.

A crash leaves a server's files as they stood at some ``os.fsync`` or
``os.replace`` of the run.  The test images every server's WAL, snapshot and
``.epoch`` files at each of those calls, beside the ``pw/w/vw`` the server
holds in memory at that moment, and recovers each image with
``make_durable`` twice: into a fresh suite, and into the run's own suite —
the one ``restart_server`` and the simulator's ``recover_server`` build the
new incarnation from, so state it kept across the crash would show here.
The recovered pairs must equal the in-memory ones.  ``read_ts``/``frozen``
are not logged per message and may rewind by design
(:mod:`repro.persist.durable`), so they are not compared.

Images are held as bytes; each recovery writes its image into one scratch
directory.  An image identical to an earlier one of the same server is
recovered once.

The same patched ``os.fsync`` also checks the write-ahead discipline itself:
a server may send a frame only while every byte its WAL holds is synced.
"""

import asyncio
import os
from collections import Counter

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.persist.durable import export_server_state, make_durable
from repro.runtime.cluster import ShardedAsyncCluster
from repro.store.sharding import ShardedProtocol

BASE = LuckyAtomicProtocol(SystemConfig.balanced(t=1, b=0))
KEYS = [f"k{index}" for index in range(6)]
WRITES = 24
COMPACT_EVERY = 3
SUFFIXES = ("wal", "snapshot", "epoch")


def held_pairs(server):
    """Register id → its ``(pw, w, vw)``, for every register *server* holds."""
    return {
        register_id: (state["pw"], state["w"], state["vw"])
        for register_id, state in export_server_state(server).items()
    }


def read_files(directory, server_id):
    """The bytes of *server_id*'s durable files (``None``: not there)."""
    contents = []
    for suffix in SUFFIXES:
        try:
            with open(os.path.join(directory, f"{server_id}.{suffix}"), "rb") as fh:
                contents.append(fh.read())
        except FileNotFoundError:
            contents.append(None)
    return tuple(contents)


def write_files(directory, server_id, contents):
    for suffix, data in zip(SUFFIXES, contents):
        path = os.path.join(directory, f"{server_id}.{suffix}")
        if data is None:
            if os.path.exists(path):
                os.remove(path)
        else:
            with open(path, "wb") as fh:
                fh.write(data)


def imaged_run(wal_dir, max_resident, monkeypatch):
    """Run WRITES writes round-robin over KEYS on a durable bounded store,
    imaging every server at each fsync and replace; returns the store and
    ``{(server id, file bytes): [in-memory pairs, ...]}``."""
    store = ShardedAsyncCluster(
        BASE,
        keys=KEYS,
        durable=True,
        wal_dir=wal_dir,
        max_resident=max_resident,
        compact_every=COMPACT_EVERY,
    )
    images = {}

    def image():
        for server_id, node in store.server_nodes.items():
            seen = images.setdefault((server_id, read_files(wal_dir, server_id)), [])
            pairs = held_pairs(node.automaton)
            if pairs not in seen:
                seen.append(pairs)

    def imaging(call):
        def wrapper(*args, **kwargs):
            result = call(*args, **kwargs)
            image()
            return result

        return wrapper

    async def scenario():
        async with store:
            for index in range(WRITES):
                key = KEYS[index % len(KEYS)]
                await store.write(key, f"{key}-{index}")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", imaging(os.fsync))
        patch.setattr(os, "replace", imaging(os.replace))
        asyncio.run(scenario())
    return store, images


def recovered_pairs(suite, server_id, directory):
    server = make_durable(suite.create_server(server_id), directory, compact_every=COMPACT_EVERY)
    try:
        return held_pairs(server)
    finally:
        server.wal.close()


@pytest.mark.parametrize("max_resident", [2, None])
def test_every_crash_image_recovers_what_the_server_held(tmp_path, monkeypatch, max_resident):
    store, images = imaged_run(str(tmp_path / "run"), max_resident, monkeypatch)
    assert len(images) > 2 * WRITES  # every server imaged after each of its appends
    suites = {
        "fresh suite": ShardedProtocol(BASE, KEYS, max_resident=max_resident),
        "the run's suite": store.suite,
    }
    scratch = tmp_path / "recover"
    scratch.mkdir()
    mismatches = []
    for (server_id, contents), held in images.items():
        write_files(scratch, server_id, contents)
        for name, suite in suites.items():
            recovered = recovered_pairs(suite, server_id, str(scratch))
            mismatches.extend(
                (name, server_id, pairs, recovered) for pairs in held if pairs != recovered
            )
    checked = len(images) * len(suites)
    assert not mismatches, (
        f"{len(mismatches)} of {checked} recoveries differ; first: {mismatches[0]}"
    )


def test_a_server_sends_only_while_its_wal_is_synced(tmp_path, monkeypatch):
    """Every frame a server sends leaves while its WAL's synced length (the
    file's size at its last ``os.fsync``) equals its written length: the
    append that logged what the frame acknowledges reached its fsync first."""
    wal_dir = str(tmp_path)
    store = ShardedAsyncCluster(
        BASE, keys=KEYS, durable=True, wal_dir=wal_dir, compact_every=COMPACT_EVERY
    )
    paths = {
        server_id: os.path.join(wal_dir, f"{server_id}.wal") for server_id in store.server_nodes
    }
    inodes = {os.stat(path).st_ino: server_id for server_id, path in paths.items()}
    synced = dict.fromkeys(paths, 0)
    unsynced_sends = []
    sends = Counter()
    real_fsync, send = os.fsync, store.transport.send

    def fsync(fd):
        real_fsync(fd)
        stat = os.fstat(fd)
        if stat.st_ino in inodes:
            synced[inodes[stat.st_ino]] = stat.st_size

    async def checked_send(source, destination, frame):
        if source in paths:
            sends[source] += 1
            written = os.path.getsize(paths[source])
            if written != synced[source]:
                unsynced_sends.append((source, destination, written, synced[source]))
        await send(source, destination, frame)

    async def scenario():
        async with store:
            for index in range(WRITES):
                key = KEYS[index % len(KEYS)]
                await store.write(key, f"{key}-{index}")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", fsync)
        patch.setattr(store.transport, "send", checked_send)
        asyncio.run(scenario())
    assert not unsynced_sends, unsynced_sends[:3]
    assert all(sends[server_id] >= WRITES for server_id in paths)
    assert all(node.automaton.snapshots.compactions for node in store.server_nodes.values())
