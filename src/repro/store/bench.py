"""Sharded-store benchmarks: throughput scaling and Zipf keyspace scenarios.

Two entry points, shared by ``benchmarks/bench_sharded_store.py`` and the
``store-bench`` CLI command:

* :func:`sharded_throughput_sweep` — drives the *same* dense multi-key
  workload against stores with a growing number of shards and reports the
  aggregate virtual-time throughput.  With one shard every operation of a
  client serializes behind its predecessor; with N shards the per-key
  multiplexing of :class:`~repro.store.sharding.ShardedClient` overlaps up to
  N operations per client, so throughput grows with the shard count.
* :func:`zipf_store_scenario` — a Zipf-skewed keyspace workload (optionally
  with one Byzantine server) whose per-key histories are fed to the existing
  atomicity checker.
* :func:`batching_sweep` — the same dense workload with message batching on
  and off under a non-zero per-frame overhead (frames from one process
  serialize on its outgoing line), showing batching's aggregate-throughput
  multiplier once the per-message cost binds at high shard counts.
* :func:`mwmr_sweep` — the S3 contended-writers scenario: every key is
  multi-writer, several clients race on a Zipf-skewed keyspace, and the
  aggregate throughput is swept over the shard count.  Each per-key history
  passes the multi-writer atomicity checker before a number is reported, and
  an SWMR fast-path probe confirms the single-writer lucky WRITE is still one
  round on a store that also hosts MWMR keys.
* :func:`recovery_sweep` — the S4 crash-recovery scenario: the dense workload
  runs WAL-off, WAL-on, and WAL-on under a crash/recovery schedule whose
  *total* crashes exceed ``t`` while at most ``t`` servers are ever down
  simultaneously (recoveries replay the write-ahead log).  Reported per phase:
  throughput dip during the outages, catch-up behaviour after recovery, and
  the wall-clock overhead of WAL bookkeeping.
* :func:`lease_sweep` — the S5 read-lease scenario: a read-heavy Zipf
  workload whose hot-key reads are served from per-register read leases in
  zero rounds.  Leases-on vs leases-off on the same arrivals, hot-key read
  throughput and latency side by side; every per-key history (including the
  lease-served reads) passes the atomicity checker before a number is
  reported.
* :func:`writer_lease_sweep` — the S7 writer-lease scenario: a write-heavy
  Zipf workload where each key has a dominant owner writer (plus occasional
  competing "steal" writes and owner read-modify-writes).  Writer-leases off
  vs on against the same arrivals, plus an SWMR single-writer baseline on the
  same arrival times — the leased MWMR hot-key write should come within a
  small factor of the paper's 1-round SWMR fast path.  Every per-key history
  (conditional operations included) passes the conditional-op checker before
  a number is reported.
"""

from __future__ import annotations

import time  # repro: ignore[RP04] -- wall-clock benchmark harness, not simulated
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bench.harness import ExperimentTable
from ..core.config import SystemConfig
from ..core.protocol import LuckyAtomicProtocol
from ..sim.byzantine import ForgeHighTimestampStrategy
from ..sim.failures import CrashRecoverySchedule, NetworkSchedule
from ..sim.latency import FixedDelay
from ..sim.topology import Topology
from ..verify.atomicity import check_atomicity_under_scenario
from ..workload.generator import (
    ScheduledOperation,
    Workload,
    churn_workload,
    contended_writers_workload,
    keyspace_workload,
    owned_writers_workload,
    run_store_workload,
    value_sequence,
)
from .sim import ShardedSimStore


def dense_store_workload(
    num_operations: int,
    keys: Sequence[str],
    readers: Sequence[str],
    gap: float = 0.05,
    start: float = 0.0,
) -> Workload:
    """A saturating workload: operations arrive far faster than they complete.

    Operations round-robin over *keys* and alternate write/read (reads
    round-robin over *readers*), so the only thing limiting completion rate is
    how many operations the clients can keep in flight — exactly what the
    shard count controls.
    """
    values = {key: value_sequence(prefix=f"{key}:v") for key in keys}
    operations: List[ScheduledOperation] = []
    ops_on_key = {key: 0 for key in keys}
    num_reads = 0
    for index in range(num_operations):
        at = start + index * gap
        key = keys[index % len(keys)]
        # Alternate write/read *per key* (a global alternation would alias with
        # the key round-robin for even key counts, starving half the keys of
        # writes and flattening the scaling curve).
        if ops_on_key[key] % 2 == 0:
            operations.append(
                ScheduledOperation(
                    at=at, kind="write", client_id="w", value=next(values[key]), key=key
                )
            )
        else:
            reader = readers[num_reads % len(readers)]
            num_reads += 1
            operations.append(
                ScheduledOperation(at=at, kind="read", client_id=reader, key=key)
            )
        ops_on_key[key] += 1
    return Workload(
        operations,
        description=f"dense x{num_operations} over {len(keys)} keys (gap={gap})",
    )


def run_store_throughput(
    num_shards: int,
    num_operations: int = 96,
    t: int = 1,
    b: int = 0,
    num_readers: int = 2,
    gap: float = 0.05,
    batching: bool = True,
    frame_overhead: float = 0.0,
) -> Tuple[ShardedSimStore, float]:
    """Run the dense workload on a *num_shards*-shard store; return throughput.

    Throughput is completed operations per unit of virtual time over the
    workload's makespan.  The per-key histories are verified atomic before the
    number is reported — a throughput figure from an inconsistent store would
    be meaningless.

    ``frame_overhead`` charges each transport frame that much line time at its
    sender (frames of one process serialize); with ``batching`` every co-flushed
    message to one destination shares a single frame, which is what amortises
    that overhead under multi-key load.
    """
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    keys = [f"k{i}" for i in range(1, num_shards + 1)]
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        delay_model=FixedDelay(1.0),
        frame_overhead=frame_overhead,
    )
    workload = dense_store_workload(
        num_operations, keys, config.reader_ids(), gap=gap
    )
    run_store_workload(store, workload)
    store.verify_atomic()
    return store, store.throughput()


def sharded_throughput_sweep(
    shard_counts: Iterable[int] = range(1, 9),
    num_operations: int = 96,
    t: int = 1,
    b: int = 0,
    num_readers: int = 2,
    batching: bool = True,
) -> ExperimentTable:
    """Aggregate throughput of the same workload as the shard count grows.

    Alongside throughput, each row reports the encoded wire bytes of every
    frame the run put on the (simulated) line.
    """
    table = ExperimentTable(
        experiment_id="S1",
        title="sharded store: aggregate throughput vs shard count",
        columns=[
            "shards",
            "operations",
            "makespan",
            "throughput",
            "speedup",
            "bytes_on_wire",
            "bytes_per_op",
        ],
    )
    baseline: Optional[float] = None
    for num_shards in shard_counts:
        store, throughput = run_store_throughput(
            num_shards,
            num_operations=num_operations,
            t=t,
            b=b,
            num_readers=num_readers,
            batching=batching,
        )
        completed = store.completed_operations()
        makespan = max(h.completed_at for h in completed) - min(
            h.invoked_at for h in completed
        )
        if baseline is None:
            baseline = throughput
        table.add_row(
            shards=num_shards,
            operations=len(completed),
            makespan=makespan,
            throughput=throughput,
            speedup=throughput / baseline,
            bytes_on_wire=store.bytes_sent,
            bytes_per_op=store.bytes_sent / len(completed),
        )
    table.add_note(
        "virtual-time throughput on the in-memory simulator; every per-key "
        "history passed the atomicity checker before being counted"
    )
    return table


def batching_sweep(
    shard_counts: Iterable[int] = (1, 4, 8, 16),
    num_operations: int = 96,
    t: int = 1,
    b: int = 0,
    num_readers: int = 2,
    frame_overhead: float = 0.1,
) -> ExperimentTable:
    """Batched vs unbatched aggregate throughput under per-frame overhead.

    Every transport frame occupies its sender's outgoing line for
    ``frame_overhead`` time units, so at high shard counts the unbatched store
    is bound by per-message cost: the writer alone emits one frame per server
    per operation.  Batching coalesces everything buffered while the line is
    busy into one envelope per destination, so the frame count collapses and
    throughput returns to being limited by per-key concurrency.  Both runs
    verify every per-key history with the atomicity checker before their
    numbers are reported.
    """
    table = ExperimentTable(
        experiment_id="S2",
        title=(
            "sharded store: batched vs unbatched throughput "
            f"(frame overhead {frame_overhead})"
        ),
        columns=[
            "shards",
            "operations",
            "unbatched",
            "batched",
            "speedup",
            "frames_unbatched",
            "frames_batched",
            "bytes_unbatched",
            "bytes_batched",
        ],
    )
    for num_shards in shard_counts:
        results = {}
        frames = {}
        wire_bytes = {}
        for batching in (False, True):
            store, throughput = run_store_throughput(
                num_shards,
                num_operations=num_operations,
                t=t,
                b=b,
                num_readers=num_readers,
                batching=batching,
                frame_overhead=frame_overhead,
            )
            results[batching] = throughput
            frames[batching] = store.frames_sent
            wire_bytes[batching] = store.bytes_sent
        table.add_row(
            shards=num_shards,
            operations=num_operations,
            unbatched=results[False],
            batched=results[True],
            speedup=results[True] / results[False],
            frames_unbatched=frames[False],
            frames_batched=frames[True],
            bytes_unbatched=wire_bytes[False],
            bytes_batched=wire_bytes[True],
        )
    table.add_note(
        "frames from one process serialize on its line for the stated "
        "overhead; a batch is one frame, so batching amortises the "
        "per-message cost that binds the unbatched store at scale"
    )
    table.add_note(
        "every per-key history passed the atomicity checker in both modes"
    )
    return table


def run_mwmr_throughput(
    num_shards: int,
    num_operations: int = 96,
    t: int = 1,
    b: int = 0,
    num_writers: int = 3,
    num_readers: int = 3,
    skew: float = 0.8,
    write_fraction: float = 0.6,
    mean_gap: float = 0.05,
    seed: int = 0,
    batching: bool = True,
) -> Tuple[ShardedSimStore, float]:
    """Run the contended-writers workload on an all-MWMR store; return throughput.

    ``num_writers`` clients (the configured writer plus the first readers —
    on an MWMR register every client hosts both roles) race on *num_shards*
    Zipf-popular keys.  Arrivals are dense (*mean_gap* far below an operation
    latency), so with one shard every client serializes all its operations on
    one register and with N shards the per-key multiplexing overlaps them —
    the same saturation logic as the SWMR sweep, now with genuinely concurrent
    writers on the popular keys.  Every per-key history is verified with the
    multi-writer atomicity checker before the number is reported.
    """
    num_readers = max(num_readers, num_writers - 1, 1)
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    keys = [f"k{i}" for i in range(1, num_shards + 1)]
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        mwmr=True,
        delay_model=FixedDelay(1.0),
    )
    writers = config.client_ids()[:num_writers]
    workload = contended_writers_workload(
        num_operations,
        keys,
        writers,
        config.reader_ids(),
        write_fraction=write_fraction,
        skew=skew,
        mean_gap=mean_gap,
        seed=seed,
    )
    run_store_workload(store, workload)
    store.verify_atomic()
    return store, store.throughput()


def swmr_fast_path_probe(t: int = 1, b: int = 0) -> Dict[str, object]:
    """Confirm the SWMR lucky fast path on a store that also hosts MWMR keys.

    Returns the rounds/fast flag of a well-spaced (lucky) WRITE on an SWMR
    key and on an MWMR key of the *same* mixed store: declaring one register
    multi-writer must cost the sibling single-writer registers nothing — the
    SWMR write stays one round, while the MWMR write pays exactly one extra
    query round.
    """
    config = SystemConfig.balanced(t, b, num_readers=2)
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        ["swmr-key", "mwmr-key"],
        mwmr=["mwmr-key"],
        delay_model=FixedDelay(1.0),
    )
    swmr_write = store.write("swmr-key", "v1")
    store.run_for(5.0)
    mwmr_write = store.write("mwmr-key", "v1", client_id="r1")
    store.run_for(5.0)
    store.verify_atomic()
    return {
        "swmr_rounds": swmr_write.rounds,
        "swmr_fast": swmr_write.fast,
        "mwmr_rounds": mwmr_write.rounds,
        "mwmr_fast": mwmr_write.fast,
    }


def mwmr_sweep(
    shard_counts: Iterable[int] = (1, 2, 4, 8),
    num_operations: int = 96,
    t: int = 1,
    b: int = 0,
    num_writers: int = 3,
    skew: float = 0.8,
    seed: int = 0,
    batching: bool = True,
) -> ExperimentTable:
    """S3: contended multi-writer throughput as the shard count grows."""
    table = ExperimentTable(
        experiment_id="S3",
        title=(
            f"MWMR store: contended-writers throughput vs shard count "
            f"({num_writers} writers, zipf s={skew})"
        ),
        columns=[
            "shards",
            "operations",
            "writers",
            "makespan",
            "throughput",
            "speedup",
            "bytes_on_wire",
        ],
    )
    baseline: Optional[float] = None
    for num_shards in shard_counts:
        store, throughput = run_mwmr_throughput(
            num_shards,
            num_operations=num_operations,
            t=t,
            b=b,
            num_writers=num_writers,
            skew=skew,
            seed=seed,
            batching=batching,
        )
        completed = store.completed_operations()
        makespan = max(h.completed_at for h in completed) - min(
            h.invoked_at for h in completed
        )
        if baseline is None:
            baseline = throughput
        table.add_row(
            shards=num_shards,
            operations=len(completed),
            writers=num_writers,
            makespan=makespan,
            throughput=throughput,
            speedup=throughput / baseline,
            bytes_on_wire=store.bytes_sent,
        )
    probe = swmr_fast_path_probe(t=t, b=b)
    table.add_note(
        "every per-key history passed the multi-writer atomicity checker "
        "(lexicographic (ts, writer_id) order) before being counted"
    )
    table.add_note(
        "SWMR fast path unchanged on a mixed store: lucky SWMR write "
        f"rounds={probe['swmr_rounds']} fast={probe['swmr_fast']}; lucky MWMR "
        f"write rounds={probe['mwmr_rounds']} (one extra query round)"
    )
    return table


def run_recovery_throughput(
    num_shards: int = 4,
    num_operations: int = 160,
    t: int = 2,
    b: int = 0,
    num_readers: int = 2,
    gap: float = 0.05,
    durable: bool = False,
    failures: Optional[CrashRecoverySchedule] = None,
    compact_every: Optional[int] = None,
    batching: bool = True,
) -> Tuple[ShardedSimStore, float]:
    """Run the dense workload, optionally durable and under a crash schedule.

    Returns the store (histories verified atomic) and the wall-clock seconds
    the run took — virtual-time throughput is blind to WAL bookkeeping, so the
    WAL-on vs WAL-off overhead is a wall-clock figure.
    """
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    keys = [f"k{i}" for i in range(1, num_shards + 1)]
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        delay_model=FixedDelay(1.0),
        durable=durable,
        failures=failures,
        compact_every=compact_every,
    )
    workload = dense_store_workload(num_operations, keys, config.reader_ids(), gap=gap)
    started = time.perf_counter()
    run_store_workload(store, workload)
    # Drain stragglers: recoveries scheduled after the last completion still
    # fire, so incarnations and WAL replays are accounted for.
    store.run_until_quiescent()
    wall_seconds = time.perf_counter() - started
    store.verify_atomic()
    return store, wall_seconds


def _phase_metrics(
    store: ShardedSimStore, windows: Sequence[Tuple[float, float]]
) -> Dict[str, dict]:
    """Completion metrics of *store* split into healthy/outage/recovered phases.

    An operation belongs to ``outage`` when its execution interval overlaps an
    outage window — that is what the crash actually *affects*: a write started
    just before the crash or finishing just after the recovery still paid the
    degraded quorum.  ``recovered`` are operations invoked after the last
    recovery (the catch-up), ``healthy`` the untouched rest.  Throughput
    divides each phase's operations by the virtual time it spans.
    """
    completed = store.completed_operations()
    start = min(handle.invoked_at for handle in completed)
    end = max(handle.completed_at for handle in completed)
    last_recovery = max(recover_at for _, recover_at in windows)
    phases = {
        name: {"operations": 0, "latency": 0.0, "fast": 0}
        for name in ("healthy", "outage", "recovered")
    }
    for handle in completed:
        overlaps = any(
            handle.invoked_at < recover_at and crash_at < handle.completed_at
            for crash_at, recover_at in windows
        )
        if overlaps:
            phase = "outage"
        elif handle.invoked_at >= last_recovery:
            phase = "recovered"
        else:
            phase = "healthy"
        phases[phase]["operations"] += 1
        phases[phase]["latency"] += handle.latency
        phases[phase]["fast"] += 1 if handle.fast else 0
    outage_span = sum(
        max(0.0, min(recover_at, end) - max(crash_at, start))
        for crash_at, recover_at in windows
    )
    spans = {
        "outage": outage_span,
        "recovered": max(0.0, end - max(last_recovery, start)),
    }
    spans["healthy"] = max(0.0, (end - start) - spans["outage"] - spans["recovered"])
    for name, metrics in phases.items():
        operations = metrics.pop("operations")
        total_latency = metrics.pop("latency")
        fast = metrics.pop("fast")
        span = spans[name]
        metrics["operations"] = operations
        metrics["throughput"] = operations / span if span > 0 else 0.0
        metrics["mean_latency"] = total_latency / operations if operations else 0.0
        metrics["fast_fraction"] = fast / operations if operations else 0.0
    return phases


def recovery_sweep(
    num_shards: int = 4,
    num_operations: int = 160,
    t: int = 2,
    b: int = 0,
    num_readers: int = 2,
    gap: float = 0.05,
    outage_fraction: float = 0.2,
    compact_every: Optional[int] = None,
    batching: bool = True,
) -> ExperimentTable:
    """S4: throughput trajectory around crash/recovery events, and WAL overhead.

    Three runs of the same dense workload:

    1. *wal-off* — the non-durable store (the baseline trajectory);
    2. *wal-on* — durable, no failures (same virtual-time throughput; the WAL
       cost is wall-clock bookkeeping, reported as a note);
    3. *crash-recover* — durable under a schedule with **two** outage windows,
       each downing ``t`` servers that later recover from their WALs.  Total
       distinct crashes are ``2t > t``, yet at no instant are more than ``t``
       servers down — the scenario the paper's fault model cannot even
       express, made schedulable by recovery.  During an outage the fast-path
       quorum ``S - fw`` is unreachable, so operations fall back to slow
       rounds: the throughput dip and the catch-up after recovery are the
       phase rows of the table.

    Every run verifies every per-key history with the atomicity checker
    before any number is reported.
    """
    table = ExperimentTable(
        experiment_id="S4",
        title=(
            f"durable store: throughput around crash/recovery "
            f"({num_shards} shards, t={t}, 2 outages of {t} server(s))"
        ),
        columns=[
            "scenario",
            "phase",
            "operations",
            "throughput",
            "mean_latency",
            "fast_fraction",
            "wall_ms",
            "bytes_on_wire",
        ],
    )
    store_off, wall_off = run_recovery_throughput(
        num_shards,
        num_operations,
        t=t,
        b=b,
        num_readers=num_readers,
        gap=gap,
        durable=False,
        batching=batching,
    )
    completed = store_off.completed_operations()
    makespan = max(h.completed_at for h in completed) - min(h.invoked_at for h in completed)
    table.add_row(
        scenario="wal-off",
        phase="steady",
        operations=len(completed),
        throughput=store_off.throughput(),
        mean_latency=sum(h.latency for h in completed) / len(completed),
        fast_fraction=sum(1 for h in completed if h.fast) / len(completed),
        wall_ms=wall_off * 1000.0,
        bytes_on_wire=store_off.bytes_sent,
    )

    store_on, wall_on = run_recovery_throughput(
        num_shards,
        num_operations,
        t=t,
        b=b,
        num_readers=num_readers,
        gap=gap,
        durable=True,
        compact_every=compact_every,
        batching=batching,
    )
    completed = store_on.completed_operations()
    table.add_row(
        scenario="wal-on",
        phase="steady",
        operations=len(completed),
        throughput=store_on.throughput(),
        mean_latency=sum(h.latency for h in completed) / len(completed),
        fast_fraction=sum(1 for h in completed if h.fast) / len(completed),
        wall_ms=wall_on * 1000.0,
        bytes_on_wire=store_on.bytes_sent,
    )

    # Two disjoint outage windows sized as a fraction of the healthy makespan,
    # each downing a different group of t servers; both groups recover.
    servers = store_on.config.server_ids()
    outage = max(outage_fraction * makespan, 4.0)
    windows = [
        (0.25 * makespan, 0.25 * makespan + outage),
        (0.25 * makespan + 1.5 * outage, 0.25 * makespan + 2.5 * outage),
    ]
    schedule = CrashRecoverySchedule()
    for (crash_at, recover_at), group in zip(
        windows, (servers[:t], servers[t : 2 * t]), strict=True
    ):
        for server_id in group:
            schedule.crash(server_id, at=crash_at, recover_at=recover_at)
    store_crash, wall_crash = run_recovery_throughput(
        num_shards,
        num_operations,
        t=t,
        b=b,
        num_readers=num_readers,
        gap=gap,
        durable=True,
        failures=schedule,
        compact_every=compact_every,
        batching=batching,
    )
    for phase, metrics in _phase_metrics(store_crash, windows).items():
        table.add_row(
            scenario="crash-recover",
            phase=phase,
            operations=metrics["operations"],
            throughput=metrics["throughput"],
            mean_latency=metrics["mean_latency"],
            fast_fraction=metrics["fast_fraction"],
            wall_ms=wall_crash * 1000.0,
            bytes_on_wire=store_crash.bytes_sent,
        )
    table.add_note(
        f"crash schedule: {schedule.total_crashes(servers)} total crashes "
        f"(> t={t}) across 2 windows, at most {t} servers down at once; all "
        "recovered servers replayed their WAL and every per-key history "
        "passed the atomicity checker"
    )
    table.add_note(
        "WAL bookkeeping overhead is wall-clock only (virtual-time throughput "
        f"is durability-blind): wal-on took {wall_on / wall_off:.2f}x the "
        f"wal-off wall time, appending {store_on.wal_records} records"
    )
    return table


def run_lease_throughput(
    num_keys: int = 4,
    num_operations: int = 160,
    t: int = 1,
    b: int = 0,
    num_readers: int = 3,
    write_fraction: float = 0.04,
    skew: float = 1.1,
    mean_gap: float = 0.2,
    seed: int = 0,
    leases: bool = True,
    lease_duration: float = 400.0,
    batching: bool = True,
) -> ShardedSimStore:
    """Run the read-heavy Zipf workload, with or without read leases.

    Arrivals are dense relative to a one-round read (*mean_gap* far below the
    round-trip-plus-timer latency), so without leases each reader serializes
    its hot-key reads behind one another and the backlog grows; with leases
    the hot key's reads complete locally in zero rounds and the store keeps up
    with the arrival rate.  The store is returned with every per-key history
    verified atomic — lease-served reads enter the same linearization as
    protocol reads.
    """
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    keys = [f"k{i}" for i in range(1, num_keys + 1)]
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        leases=True if leases else (),
        lease_duration=lease_duration,
        delay_model=FixedDelay(1.0),
    )
    workload = keyspace_workload(
        num_operations,
        keys,
        config.reader_ids(),
        write_fraction=write_fraction,
        skew=skew,
        mean_gap=mean_gap,
        seed=seed,
    )
    run_store_workload(store, workload)
    store.verify_atomic()
    return store


def _hot_key_read_metrics(store: ShardedSimStore, hot_key: str) -> Dict[str, float]:
    """Throughput/latency/lease metrics of the completed reads on *hot_key*."""
    reads = [
        handle
        for handle in store.completed_operations()
        if handle.kind == "read" and handle.register_id == hot_key
    ]
    if not reads:
        return {
            "reads": 0,
            "throughput": 0.0,
            "mean_latency": 0.0,
            "lease_fraction": 0.0,
        }
    span = max(h.completed_at for h in reads) - min(h.invoked_at for h in reads)
    leased = sum(1 for h in reads if h.result.metadata.get("lease"))
    return {
        "reads": len(reads),
        "throughput": len(reads) / span if span > 0 else float("inf"),
        "mean_latency": sum(h.latency for h in reads) / len(reads),
        "lease_fraction": leased / len(reads),
    }


def lease_sweep(
    num_keys: int = 4,
    num_operations: int = 160,
    t: int = 1,
    b: int = 0,
    num_readers: int = 3,
    write_fraction: float = 0.04,
    skew: float = 1.1,
    lease_duration: float = 400.0,
    seed: int = 0,
    batching: bool = True,
) -> ExperimentTable:
    """S5: hot-key read throughput with leases off vs on, same arrivals.

    The leases-off run is the paper's best case — every read one lucky round;
    the leases-on run serves the same reads from per-register read leases in
    zero rounds, falling back to the protocol (and re-acquiring) around each
    write's revocation.  Both runs verify every per-key history, lease-served
    reads included, before any number is reported.
    """
    table = ExperimentTable(
        experiment_id="S5",
        title=(
            f"read leases: hot-key reads, leases off vs on "
            f"({num_keys} keys, zipf s={skew}, writes={write_fraction:.0%})"
        ),
        columns=[
            "scenario",
            "operations",
            "hot_reads",
            "hot_read_throughput",
            "hot_read_latency",
            "lease_fraction",
            "speedup",
            "bytes_on_wire",
        ],
    )
    hot_key = "k1"  # rank 1 of the Zipf popularity order
    baseline: Optional[float] = None
    lease_reads_served = 0
    for leases in (False, True):
        store = run_lease_throughput(
            num_keys=num_keys,
            num_operations=num_operations,
            t=t,
            b=b,
            num_readers=num_readers,
            write_fraction=write_fraction,
            skew=skew,
            seed=seed,
            leases=leases,
            lease_duration=lease_duration,
            batching=batching,
        )
        metrics = _hot_key_read_metrics(store, hot_key)
        if leases:
            lease_reads_served = store.lease_reads()
        if baseline is None:
            baseline = metrics["throughput"]
        table.add_row(
            scenario="leased" if leases else "no-lease",
            operations=len(store.completed_operations()),
            hot_reads=metrics["reads"],
            hot_read_throughput=metrics["throughput"],
            hot_read_latency=metrics["mean_latency"],
            lease_fraction=metrics["lease_fraction"],
            speedup=metrics["throughput"] / baseline if baseline else 0.0,
            bytes_on_wire=store.bytes_sent,
        )
    table.add_note(
        "identical Zipf arrivals; the no-lease run is the paper's 1-round "
        "lucky fast path, the leased run serves hot-key reads locally in "
        "zero rounds and re-acquires after every write's revocation"
    )
    table.add_note(
        f"{lease_reads_served} reads were served from leases across all "
        "keys; every per-key history (lease-served reads included) passed "
        "the atomicity checker in both runs"
    )
    return table


def run_writer_lease_throughput(
    num_keys: int = 4,
    num_operations: int = 160,
    t: int = 1,
    b: int = 0,
    num_writers: int = 3,
    write_fraction: float = 0.55,
    rmw_fraction: float = 0.15,
    steal_fraction: float = 0.05,
    skew: float = 1.1,
    mean_gap: float = 0.2,
    seed: int = 0,
    writer_leases: bool = True,
    lease_duration: float = 400.0,
    batching: bool = True,
) -> ShardedSimStore:
    """Run the owned-writers Zipf workload, with or without writer leases.

    Every key is multi-writer with a dominant owner; with ``writer_leases``
    the owner's lease turns its writes into one round (no timestamp-query
    phase) and its read-modify-writes into locally decided one-round writes,
    re-stabilising after each competing "steal" write forces a revocation.
    The store is returned with every per-key history verified — conditional
    operations run through the conditional-op checker.
    """
    num_readers = max(3, num_writers - 1)
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    keys = [f"k{i}" for i in range(1, num_keys + 1)]
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        mwmr=True,
        writer_leases=True if writer_leases else (),
        lease_duration=lease_duration,
        delay_model=FixedDelay(1.0),
    )
    writers = config.client_ids()[:num_writers]
    workload = owned_writers_workload(
        num_operations,
        keys,
        writers,
        config.reader_ids(),
        write_fraction=write_fraction,
        rmw_fraction=rmw_fraction,
        steal_fraction=steal_fraction,
        skew=skew,
        mean_gap=mean_gap,
        seed=seed,
    )
    run_store_workload(store, workload)
    store.verify_atomic()
    return store


def _swmr_baseline_workload(workload: Workload, keys: Sequence[str]) -> Workload:
    """The SWMR shadow of an owned-writers workload: same arrival times.

    Every write and RMW becomes a plain write by the configured writer ``w``
    (an SWMR register accepts no other writer and no conditional operations),
    with fresh per-key unique values; reads are unchanged.  Identical arrival
    times make the throughput comparison between the leased MWMR store and
    the paper's 1-round SWMR fast path apples-to-apples.
    """
    values = {key: value_sequence(prefix=f"{key}:swmr:v") for key in keys}
    operations = []
    for op in workload.sorted():
        if op.kind in ("write", "rmw"):
            operations.append(
                ScheduledOperation(
                    at=op.at,
                    kind="write",
                    client_id="w",
                    value=next(values[op.key]),
                    key=op.key,
                )
            )
        else:
            operations.append(op)
    return Workload(operations, description=f"swmr shadow of: {workload.description}")


def _hot_key_write_metrics(store: ShardedSimStore, hot_key: str) -> Dict[str, float]:
    """Throughput/latency/rounds/lease metrics of the writes landed on *hot_key*.

    Failed CAS attempts complete as reads and are excluded; successful RMWs
    complete as writes and are included.
    """
    writes = [
        handle
        for handle in store.completed_operations()
        if handle.register_id == hot_key
        and handle.kind in ("write", "rmw", "cas")
        and handle.result.kind == "write"
    ]
    if not writes:
        return {
            "writes": 0,
            "throughput": 0.0,
            "mean_latency": 0.0,
            "mean_rounds": 0.0,
            "lease_fraction": 0.0,
        }
    span = max(h.completed_at for h in writes) - min(h.invoked_at for h in writes)
    leased = sum(1 for h in writes if h.result.metadata.get("lease"))
    return {
        "writes": len(writes),
        "throughput": len(writes) / span if span > 0 else float("inf"),
        "mean_latency": sum(h.latency for h in writes) / len(writes),
        "mean_rounds": sum(h.rounds for h in writes) / len(writes),
        "lease_fraction": leased / len(writes),
    }


def writer_lease_sweep(
    num_keys: int = 4,
    num_operations: int = 160,
    t: int = 1,
    b: int = 0,
    num_writers: int = 3,
    write_fraction: float = 0.55,
    rmw_fraction: float = 0.15,
    steal_fraction: float = 0.05,
    skew: float = 1.1,
    lease_duration: float = 400.0,
    seed: int = 0,
    batching: bool = True,
) -> ExperimentTable:
    """S7: hot-key writes — SWMR baseline vs MWMR with writer leases off/on.

    Three runs against the same arrival times:

    1. *swmr-1-round* — the single-writer store, every lucky write one round
       (the paper's fast path; the bar writer leases are measured against);
    2. *no-wlease* — the multi-writer store, every write paying the
       timestamp-query round on top of the propagation round;
    3. *wlease* — the same MWMR store with per-key writer leases: the owner
       writes in one round from its leased timestamp cache and decides RMWs
       locally, re-acquiring after each competing steal write's revocation.

    Every per-key history passes the fitting checker (conditional-op checker
    for the MWMR runs) before a number is reported.
    """
    table = ExperimentTable(
        experiment_id="S7",
        title=(
            f"writer leases: hot-key writes, SWMR baseline vs MWMR off/on "
            f"({num_keys} keys, {num_writers} writers, zipf s={skew}, "
            f"steals={steal_fraction:.0%})"
        ),
        columns=[
            "scenario",
            "operations",
            "hot_writes",
            "hot_write_throughput",
            "hot_write_latency",
            "mean_rounds",
            "lease_fraction",
            "vs_swmr",
            "bytes_on_wire",
        ],
    )
    hot_key = "k1"  # rank 1 of the Zipf popularity order

    # SWMR baseline: the shadow workload on a single-writer store.
    num_readers = max(3, num_writers - 1)
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    keys = [f"k{i}" for i in range(1, num_keys + 1)]
    swmr_store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        delay_model=FixedDelay(1.0),
    )
    writers = config.client_ids()[:num_writers]
    mwmr_workload = owned_writers_workload(
        num_operations,
        keys,
        writers,
        config.reader_ids(),
        write_fraction=write_fraction,
        rmw_fraction=rmw_fraction,
        steal_fraction=steal_fraction,
        skew=skew,
        seed=seed,
    )
    run_store_workload(swmr_store, _swmr_baseline_workload(mwmr_workload, keys))
    swmr_store.verify_atomic()
    swmr_metrics = _hot_key_write_metrics(swmr_store, hot_key)
    baseline = swmr_metrics["throughput"]
    table.add_row(
        scenario="swmr-1-round",
        operations=len(swmr_store.completed_operations()),
        hot_writes=swmr_metrics["writes"],
        hot_write_throughput=swmr_metrics["throughput"],
        hot_write_latency=swmr_metrics["mean_latency"],
        mean_rounds=swmr_metrics["mean_rounds"],
        lease_fraction=0.0,
        vs_swmr=1.0,
        bytes_on_wire=swmr_store.bytes_sent,
    )

    lease_writes_served = 0
    conditional_writes = 0
    for writer_leases in (False, True):
        store = run_writer_lease_throughput(
            num_keys=num_keys,
            num_operations=num_operations,
            t=t,
            b=b,
            num_writers=num_writers,
            write_fraction=write_fraction,
            rmw_fraction=rmw_fraction,
            steal_fraction=steal_fraction,
            skew=skew,
            seed=seed,
            writer_leases=writer_leases,
            lease_duration=lease_duration,
            batching=batching,
        )
        metrics = _hot_key_write_metrics(store, hot_key)
        if writer_leases:
            lease_writes_served = store.lease_writes()
            conditional_writes = sum(
                result.cas_writes for result in store.check_atomicity().values()
            )
        table.add_row(
            scenario="wlease" if writer_leases else "no-wlease",
            operations=len(store.completed_operations()),
            hot_writes=metrics["writes"],
            hot_write_throughput=metrics["throughput"],
            hot_write_latency=metrics["mean_latency"],
            mean_rounds=metrics["mean_rounds"],
            lease_fraction=metrics["lease_fraction"],
            vs_swmr=metrics["throughput"] / baseline if baseline else 0.0,
            bytes_on_wire=store.bytes_sent,
        )
    table.add_note(
        "identical arrival times; the SWMR run is the paper's 1-round lucky "
        "fast path, the MWMR runs add the timestamp-query round which the "
        "owner's writer lease then elides again"
    )
    table.add_note(
        f"{lease_writes_served} writes were served in one round from writer "
        f"leases and {conditional_writes} conditional (RMW) writes were "
        "verified for conditional isolation; every per-key history passed "
        "the conditional-op checker in both MWMR runs"
    )
    return table


def zipf_store_scenario(
    num_operations: int = 150,
    num_keys: int = 6,
    byzantine: bool = False,
    seed: int = 0,
    skew: float = 1.2,
    batching: bool = True,
) -> ShardedSimStore:
    """Run a Zipf keyspace workload; returns the store, ready for checking.

    With ``byzantine=True`` the first server runs the forge-high-timestamp
    attack on every shard — the per-key quorum arithmetic must still keep all
    per-key histories atomic (each register tolerates ``b`` malicious servers
    independently, so faults stay confined per shard).
    """
    config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=3)
    keys = [f"k{i}" for i in range(1, num_keys + 1)]
    strategies = {"s1": ForgeHighTimestampStrategy} if byzantine else None
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        byzantine=strategies,
        batching=batching,
        delay_model=FixedDelay(1.0),
    )
    workload = keyspace_workload(
        num_operations,
        keys,
        config.reader_ids(),
        write_fraction=0.4,
        skew=skew,
        mean_gap=1.0,
        seed=seed,
    )
    run_store_workload(store, workload)
    return store


# --------------------------------------------------------------------------- #
# S8: topology sweep (zones, partitions, gray failures, skew, cold-key churn)
# --------------------------------------------------------------------------- #


def _fast_rate(handles: Sequence[object]) -> float:
    completed = [h for h in handles if getattr(h, "done", False)]
    if not completed:
        return 0.0
    return sum(1 for h in completed if getattr(h, "fast", False)) / len(completed)


def _scenario_topology(
    profile: str, scenario: str, config: SystemConfig, span: float
) -> Tuple[Topology, List[Tuple[float, float, str]]]:
    """A profile topology with one scenario's faults installed.

    Returns the topology plus the disturbance windows the scenario exposes
    the run to (fed to :func:`check_atomicity_under_scenario`).  The
    ``partition`` scenario severs the first server's zone for the middle
    third of *span*; clients of that zone are first moved out — an op
    invoked behind the cut has no retry path across it, so it would stall
    for the whole window rather than degrade.
    """
    server_ids = config.server_ids()
    client_ids = config.client_ids()
    topology = Topology.profile(profile, server_ids=server_ids, client_ids=client_ids)
    round_trips = [
        topology.round_trip_bound(client_id, server_ids) for client_id in client_ids
    ]
    worst_rt = max((rt for rt in round_trips if rt is not None), default=10.0)
    windows: List[Tuple[float, float, str]] = []
    if scenario == "healthy":
        pass
    elif scenario == "partition":
        victim = topology.zone_of(server_ids[0])
        others = [zone for zone in topology.zone_names if zone != victim]
        if not others:
            raise ValueError(
                f"the partition scenario needs a multi-zone profile, not {profile!r}"
            )
        for client_id in client_ids:
            if topology.zone_of(client_id) == victim:
                topology.assign(client_id, others[0])
        start, end = 0.35 * span, 0.65 * span
        topology.schedule = NetworkSchedule().partition(
            [victim], others, start=start, end=end
        )
        windows = topology.schedule.disturbance_windows()
    elif scenario == "gray":
        # The last server's links go slow-but-alive by a full round trip:
        # its replies always miss round-1 timers, but quorums still form.
        gray_server = server_ids[-1]
        topology.set_gray(gray_server, worst_rt)
        windows = [(0.0, span, f"gray {gray_server}")]
    elif scenario == "skew":
        # The writer's clock runs fast: its round-1 timer fires at half the
        # nominal duration, before the slowest link's acks can arrive, so
        # the writer decides on a round quorum instead of the full fleet.
        skewed = config.writer_id
        topology.set_skew(skewed, 0.5)
        windows = [(0.0, span, f"skew {skewed} x0.5")]
    else:
        raise ValueError(f"unknown topology scenario {scenario!r}")
    return topology, windows


def run_topology_scenario(
    profile: str,
    scenario: str = "healthy",
    num_operations: int = 60,
    t: int = 1,
    b: int = 0,
    num_readers: int = 2,
    num_keys: int = 4,
    batching: bool = True,
) -> Dict[str, object]:
    """One S8 cell: the dense workload on a profile topology under one fault.

    The workload is deterministic and well spaced (one operation per worst
    client round trip, keys round-robined), so in a healthy profile nearly
    every operation is lucky; the scenario then quantifies how much of the
    1-round fast path survives the fault.  Atomicity is checked per key with
    the scenario-aware pass before any number is reported — a partition may
    cost availability and the fast path, never linearizability.

    The configuration runs with ``fw = fr = 0`` — the paper's "luckiest"
    setting, where the 1-round write needs PW_ACKs from *all* ``S`` servers
    by decision time.  That is deliberate: with ``fw >= 1`` the fast path
    already tolerates a server loss, so a single-zone partition would not
    register at all.  Operations still complete through the ``S - t`` round
    quorum either way — degradation, not collapse.
    """
    config = SystemConfig(t=t, b=b, fw=0, fr=0, num_readers=num_readers)
    keys = [f"k{i}" for i in range(1, num_keys + 1)]
    probe = Topology.profile(
        profile, server_ids=config.server_ids(), client_ids=config.client_ids()
    )
    round_trips = [
        probe.round_trip_bound(client_id, config.server_ids())
        for client_id in config.client_ids()
    ]
    gap = max((rt for rt in round_trips if rt is not None), default=10.0)
    span = num_operations * gap
    topology, windows = _scenario_topology(profile, scenario, config, span)
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        topology=topology,
    )
    workload = dense_store_workload(
        num_operations, keys, config.reader_ids(), gap=gap
    )
    handles = run_store_workload(store, workload)
    atomic = True
    mwmr_keys = set(store.mwmr_keys)
    for key, history in store.histories().items():
        verdict = check_atomicity_under_scenario(
            history, windows, mwmr=key in mwmr_keys
        )
        verdict.raise_if_violated()
        atomic = atomic and verdict.ok
    return {
        "profile": profile,
        "scenario": scenario,
        "operations": len(handles),
        "completed": sum(1 for h in handles if h.done),
        "fast_rate": _fast_rate(handles),
        "drops": topology.partition_drops,
        "evictions": 0,
        "rehydrations": 0,
        "throughput": store.throughput(),
        "atomic": "yes" if atomic else "NO",
    }


def run_topology_churn(
    profile: str,
    num_registers: int = 10_000,
    max_resident: int = 1_000,
    t: int = 1,
    b: int = 0,
    num_readers: int = 2,
    seed: int = 0,
    batching: bool = True,
) -> Dict[str, object]:
    """The cold-key churn cell: a dynamic keyspace under a resident bound.

    Registers are created, briefly used, revisited after going cold (the
    fault-on-access rehydration path) and mostly dropped, on the profile's
    healthy topology.  Every surviving per-key history must check atomic.
    """
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    topology = Topology.profile(
        profile, server_ids=config.server_ids(), client_ids=config.client_ids()
    )
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys=[],
        batching=batching,
        max_resident=max_resident,
        topology=topology,
    )
    workload = churn_workload(
        num_registers, readers=config.reader_ids(), seed=seed
    )
    handles = run_store_workload(store, workload)
    results = store.check_atomicity()
    atomic = all(result.ok for result in results.values())
    if not atomic:
        store.verify_atomic()  # raises with details
    return {
        "profile": profile,
        "scenario": f"churn x{num_registers} (resident<={max_resident})",
        "operations": len(handles),
        "completed": sum(1 for h in handles if h.done),
        "fast_rate": _fast_rate(handles),
        "drops": topology.partition_drops,
        "evictions": store.evictions,
        "rehydrations": store.rehydrations,
        "throughput": store.throughput(),
        "atomic": "yes" if atomic else "NO",
    }


def run_asyncio_churn(
    num_registers: int = 10_000,
    max_resident: int = 1_000,
    t: int = 1,
    b: int = 0,
    wave: int = 128,
    drop_fraction: float = 0.5,
    message_delay_s: float = 0.0002,
) -> Dict[str, object]:
    """The asyncio-runtime churn cell: create / write / read / drop in waves.

    Registers are processed *wave* at a time with real concurrency on the
    asyncio cluster; every register is written and read once, a fraction is
    dropped, and one early register is revisited per wave to exercise
    rehydration.  Per-key histories must check atomic.
    """
    import asyncio

    from ..runtime.cluster import ShardedAsyncCluster

    base = LuckyAtomicProtocol(SystemConfig.balanced(t, b, num_readers=2))
    counters: Dict[str, object] = {}

    async def _one(store: "ShardedAsyncCluster", index: int) -> bool:
        key = f"churn-{index:06d}"
        store.create_register(key)
        write = await store.write(key, f"{key}:v1")
        read = await store.read(key)
        ok = read.value == f"{key}:v1"
        if (index * 2654435761) % 1_000 < drop_fraction * 1_000:
            store.drop_register(key)
        return ok and write.fast

    async def _scenario(store: "ShardedAsyncCluster") -> None:
        fast = 0
        for wave_start in range(0, num_registers, wave):
            indices = range(wave_start, min(wave_start + wave, num_registers))
            fast += sum(await asyncio.gather(*(_one(store, i) for i in indices)))
            if wave_start:  # revisit a cold register from the previous wave
                revisit = f"churn-{wave_start - wave:06d}"
                if revisit in store.suite.specs:
                    await store.read(revisit)
        counters["fast"] = fast
        counters["evictions"] = store.evictions
        counters["rehydrations"] = store.rehydrations
        counters["atomic"] = store.verify_atomic()
        counters["operations"] = sum(
            len(node.records) for node in store.client_nodes.values()
        )

    ShardedAsyncCluster.run_scenario(
        base,
        _scenario,
        keys=[],
        max_resident=max_resident,
        message_delay_s=message_delay_s,
    )
    return {
        "profile": "asyncio",
        "scenario": f"churn x{num_registers} (resident<={max_resident})",
        "operations": counters["operations"],
        "completed": counters["operations"],
        "fast_rate": float(counters["fast"]) / max(1, num_registers),
        "drops": 0,
        "evictions": counters["evictions"],
        "rehydrations": counters["rehydrations"],
        "throughput": 0.0,
        "atomic": "yes" if counters["atomic"] else "NO",
    }


def topology_sweep(
    profiles: Sequence[str] = ("lan", "wan-3dc"),
    scenarios: Sequence[str] = ("healthy", "partition", "gray", "skew"),
    num_operations: int = 60,
    t: int = 1,
    b: int = 0,
    churn: bool = False,
    churn_registers: int = 10_000,
    churn_resident: int = 1_000,
    batching: bool = True,
) -> ExperimentTable:
    """S8: fast-path survival across topology profiles × network scenarios.

    For every profile, the same well-spaced workload runs healthy and under a
    mid-run partition, a gray failure and a fast client clock; each cell
    reports how much of the paper's 1-round fast path survived, how many
    frames the partition dropped, and that atomicity held regardless.  With
    ``churn`` the sweep appends cold-key churn rows — a dynamic keyspace of
    *churn_registers* registers under a *churn_resident* memory bound — on
    the first profile's topology (sim) and on the asyncio runtime.
    """
    table = ExperimentTable(
        experiment_id="S8",
        title="topology sweep: fast-path survival across zones and scenarios",
        columns=[
            "profile",
            "scenario",
            "operations",
            "completed",
            "fast_rate",
            "drops",
            "evictions",
            "rehydrations",
            "throughput",
            "atomic",
        ],
    )
    for profile in profiles:
        for scenario in scenarios:
            if scenario == "partition" and profile == "lan":
                continue  # single zone: nothing to sever
            table.add_row(
                **run_topology_scenario(
                    profile,
                    scenario,
                    num_operations=num_operations,
                    t=t,
                    b=b,
                    batching=batching,
                )
            )
    if churn:
        table.add_row(
            **run_topology_churn(
                profiles[0],
                num_registers=churn_registers,
                max_resident=churn_resident,
                t=t,
                b=b,
                batching=batching,
            )
        )
        table.add_row(
            **run_asyncio_churn(
                num_registers=churn_registers, max_resident=churn_resident, t=t, b=b
            )
        )
    table.add_note(
        "fast_rate is the fraction of completed operations that finished in "
        "one round; atomicity is checked per key with the scenario-aware "
        "pass before any number is reported (partitions cost the fast path "
        "and availability, never linearizability)"
    )
    table.add_note(
        "partition rows sever the first server's zone for the middle third "
        "of the run; gray rows slow one server's links by a full round "
        "trip; skew rows run the writer's clock at double speed (its "
        "round-1 timer fires at half the nominal duration)"
    )
    return table
