"""Workload generation for the simulator.

A :class:`Workload` is a timed schedule of operations (writes by the single
writer, reads by named readers).  Generators produce the scenarios the paper
reasons about:

* *lucky* phases — well-spaced writes and reads on a synchronous network;
* *contended* phases — reads overlapping writes;
* mixed Poisson-like arrivals for throughput-style comparisons.

``run_workload`` drives a :class:`~repro.sim.cluster.SimCluster` through a
workload while respecting the well-formedness rule that a client has at most
one outstanding operation: if a client is still busy when its next operation
is due, the invocation is deferred until the current one completes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence

from ..sim.cluster import OperationHandle, SimCluster


@dataclass(frozen=True)
class ScheduledOperation:
    """One operation of a workload.

    ``key`` is ``None`` for single-register workloads; keyspace workloads name
    the register the operation targets.
    """

    at: float
    kind: str  # "write" | "read" | "rmw" | "create" | "drop" (store workloads only)
    client_id: str
    value: Optional[str] = None
    key: Optional[str] = None


@dataclass
class Workload:
    """A timed schedule of operations."""

    operations: List[ScheduledOperation] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.operations)

    def sorted(self) -> List[ScheduledOperation]:
        return sorted(self.operations, key=lambda op: op.at)

    def writes(self) -> List[ScheduledOperation]:
        return [op for op in self.operations if op.kind == "write"]

    def reads(self) -> List[ScheduledOperation]:
        return [op for op in self.operations if op.kind == "read"]


def value_sequence(prefix: str = "v") -> Iterator[str]:
    """Unique values ``v1, v2, ...`` — uniqueness keeps the checkers exact."""
    index = 0
    while True:
        index += 1
        yield f"{prefix}{index}"


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #


def lucky_workload(
    num_rounds: int,
    readers: Sequence[str],
    gap: float = 20.0,
    reads_per_round: int = 1,
    start: float = 0.0,
) -> Workload:
    """Alternating well-separated writes and reads: every operation is lucky."""
    values = value_sequence()
    operations: List[ScheduledOperation] = []
    now = start
    for _ in range(num_rounds):
        operations.append(
            ScheduledOperation(at=now, kind="write", client_id="w", value=next(values))
        )
        now += gap
        for index in range(reads_per_round):
            reader = readers[index % len(readers)]
            operations.append(ScheduledOperation(at=now, kind="read", client_id=reader))
            now += gap
    return Workload(operations, description=f"lucky x{num_rounds}")


def contended_workload(
    num_writes: int,
    readers: Sequence[str],
    write_gap: float = 10.0,
    read_offset: float = 0.5,
    start: float = 0.0,
) -> Workload:
    """Every READ is invoked shortly after a WRITE starts, so they overlap."""
    values = value_sequence()
    operations: List[ScheduledOperation] = []
    now = start
    for index in range(num_writes):
        operations.append(
            ScheduledOperation(at=now, kind="write", client_id="w", value=next(values))
        )
        reader = readers[index % len(readers)]
        operations.append(
            ScheduledOperation(at=now + read_offset, kind="read", client_id=reader)
        )
        now += write_gap
    return Workload(operations, description=f"contended x{num_writes}")


def poisson_workload(
    duration: float,
    write_rate: float,
    read_rate: float,
    readers: Sequence[str],
    seed: int = 0,
    start: float = 0.0,
) -> Workload:
    """Random arrivals: writes at *write_rate* and reads at *read_rate* per unit."""
    rng = random.Random(seed)
    values = value_sequence()
    operations: List[ScheduledOperation] = []
    now = start
    while True:
        now += rng.expovariate(write_rate) if write_rate > 0 else duration + 1
        if now - start > duration:
            break
        operations.append(
            ScheduledOperation(at=now, kind="write", client_id="w", value=next(values))
        )
    now = start
    while True:
        now += rng.expovariate(read_rate) if read_rate > 0 else duration + 1
        if now - start > duration:
            break
        operations.append(
            ScheduledOperation(
                at=now, kind="read", client_id=rng.choice(list(readers))
            )
        )
    return Workload(operations, description=f"poisson w={write_rate}/r={read_rate} for {duration}")


def zipf_weights(num_keys: int, skew: float) -> List[float]:
    """Zipf popularity weights: the rank-``i`` key gets weight ``1 / i**skew``."""
    if num_keys < 1:
        raise ValueError("at least one key is required")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    return [1.0 / (rank**skew) for rank in range(1, num_keys + 1)]


def _zipf_operations(
    num_operations: int,
    keys: Sequence[str],
    readers: Sequence[str],
    writers: Sequence[str],
    write_fraction: float,
    skew: float,
    mean_gap: float,
    seed: int,
    start: float,
    value_prefix: Callable[[str, str], str],
) -> List[ScheduledOperation]:
    """Shared arrival loop of the Zipf keyspace workloads.

    Operations arrive with exponential inter-arrival gaps (mean *mean_gap*);
    each picks its key with probability proportional to ``1 / rank**skew``
    (the order of *keys* is the popularity ranking) and is a write with
    probability *write_fraction*, issued by a uniformly random writer (no
    draw is spent when there is only one, keeping single-writer workloads
    byte-identical across releases), or a read by a uniformly random reader.
    Values come from per-(key, writer) unique sequences named by
    *value_prefix*, preserving the unique-value property the checkers need.
    """
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be within [0, 1]")
    if mean_gap <= 0:
        raise ValueError("mean_gap must be positive")
    if not writers and write_fraction > 0.0:
        raise ValueError("at least one writer client is required")
    if not readers and write_fraction < 1.0:
        raise ValueError("at least one reader client is required")
    rng = random.Random(seed)
    key_list = list(keys)
    writer_list = list(writers)
    reader_list = list(readers)
    cum_weights = list(itertools.accumulate(zipf_weights(len(key_list), skew)))
    values = {
        (key, writer): value_sequence(prefix=value_prefix(key, writer))
        for key in key_list
        for writer in writer_list
    }
    operations: List[ScheduledOperation] = []
    now = start
    for _ in range(num_operations):
        now += rng.expovariate(1.0 / mean_gap)
        (key,) = rng.choices(key_list, cum_weights=cum_weights)
        if rng.random() < write_fraction:
            writer = writer_list[0] if len(writer_list) == 1 else rng.choice(writer_list)
            operations.append(
                ScheduledOperation(
                    at=now,
                    kind="write",
                    client_id=writer,
                    value=next(values[(key, writer)]),
                    key=key,
                )
            )
        else:
            operations.append(
                ScheduledOperation(
                    at=now, kind="read", client_id=rng.choice(reader_list), key=key
                )
            )
    return operations


def keyspace_workload(
    num_operations: int,
    keys: Sequence[str],
    readers: Sequence[str],
    write_fraction: float = 0.5,
    skew: float = 1.2,
    mean_gap: float = 1.0,
    seed: int = 0,
    start: float = 0.0,
) -> Workload:
    """A multi-key workload with Zipf-skewed key popularity.

    Writes are issued by the single writer ``w``, who owns every key in the
    SWMR model; written values embed the key and a per-key counter, so every
    per-key history keeps the unique-value property the checkers rely on.
    """
    operations = _zipf_operations(
        num_operations,
        keys,
        readers,
        writers=["w"],
        write_fraction=write_fraction,
        skew=skew,
        mean_gap=mean_gap,
        seed=seed,
        start=start,
        value_prefix=lambda key, writer: f"{key}:v",
    )
    return Workload(
        operations,
        description=(
            f"keyspace x{num_operations} over {len(keys)} keys "
            f"(zipf s={skew}, writes={write_fraction:.0%})"
        ),
    )


def contended_writers_workload(
    num_operations: int,
    keys: Sequence[str],
    writers: Sequence[str],
    readers: Sequence[str],
    write_fraction: float = 0.6,
    skew: float = 1.0,
    mean_gap: float = 0.5,
    seed: int = 0,
    start: float = 0.0,
) -> Workload:
    """A multi-writer workload: several clients racing on Zipf-popular keys.

    The MWMR stress scenario: the head keys see genuinely *contended*
    concurrent writers, drawn uniformly from *writers* — which, on an MWMR
    store, may be any client of the deployment, not just the configured
    writer.  Written values embed the key, the writer and a per-(key, writer)
    counter, so every per-key history keeps the unique-value property the
    checkers rely on even when two writers race on one key.
    """
    if not writers:
        raise ValueError("at least one writer client is required")
    operations = _zipf_operations(
        num_operations,
        keys,
        readers,
        writers=writers,
        write_fraction=write_fraction,
        skew=skew,
        mean_gap=mean_gap,
        seed=seed,
        start=start,
        value_prefix=lambda key, writer: f"{key}:{writer}:v",
    )
    return Workload(
        operations,
        description=(
            f"contended-writers x{num_operations} over {len(keys)} keys, "
            f"{len(writers)} writers (zipf s={skew}, "
            f"writes={write_fraction:.0%})"
        ),
    )


def owned_writers_workload(
    num_operations: int,
    keys: Sequence[str],
    writers: Sequence[str],
    readers: Sequence[str],
    write_fraction: float = 0.6,
    rmw_fraction: float = 0.15,
    steal_fraction: float = 0.05,
    skew: float = 1.1,
    mean_gap: float = 0.2,
    seed: int = 0,
    start: float = 0.0,
) -> Workload:
    """A multi-writer Zipf workload where each key has a *dominant owner*.

    The writer-lease scenario: key rank ``i`` is owned by
    ``writers[i % len(writers)]``, who issues its plain writes and all of its
    read-modify-writes; a *steal_fraction* of the plain writes comes from a
    random non-owner instead — genuine contention that forces the owner's
    writer lease through a revocation round before it re-stabilises.
    Fractions: *write_fraction* of the operations are plain writes,
    *rmw_fraction* are RMWs (both counted over all operations), the rest are
    reads by a random reader.  Written values embed the key, the writer and a
    per-(key, writer) counter; RMW values use a separate ``m``-prefixed
    counter, so every per-key history keeps the unique-value property the
    checkers rely on.
    """
    if not writers:
        raise ValueError("at least one writer client is required")
    if not 0.0 <= write_fraction + rmw_fraction <= 1.0:
        raise ValueError("write_fraction + rmw_fraction must be within [0, 1]")
    if not 0.0 <= steal_fraction <= 1.0:
        raise ValueError("steal_fraction must be within [0, 1]")
    if mean_gap <= 0:
        raise ValueError("mean_gap must be positive")
    if not readers and write_fraction + rmw_fraction < 1.0:
        raise ValueError("at least one reader client is required")
    rng = random.Random(seed)
    key_list = list(keys)
    writer_list = list(writers)
    reader_list = list(readers)
    owners = {
        key: writer_list[rank % len(writer_list)]
        for rank, key in enumerate(key_list)
    }
    cum_weights = list(itertools.accumulate(zipf_weights(len(key_list), skew)))
    values = {
        (key, writer, prefix): value_sequence(prefix=f"{key}:{writer}:{prefix}")
        for key in key_list
        for writer in writer_list
        for prefix in ("v", "m")
    }
    operations: List[ScheduledOperation] = []
    now = start
    for _ in range(num_operations):
        now += rng.expovariate(1.0 / mean_gap)
        (key,) = rng.choices(key_list, cum_weights=cum_weights)
        owner = owners[key]
        draw = rng.random()
        if draw < write_fraction:
            writer = owner
            if len(writer_list) > 1 and rng.random() < steal_fraction:
                writer = rng.choice([w for w in writer_list if w != owner])
            operations.append(
                ScheduledOperation(
                    at=now,
                    kind="write",
                    client_id=writer,
                    value=next(values[(key, writer, "v")]),
                    key=key,
                )
            )
        elif draw < write_fraction + rmw_fraction:
            operations.append(
                ScheduledOperation(
                    at=now,
                    kind="rmw",
                    client_id=owner,
                    value=next(values[(key, owner, "m")]),
                    key=key,
                )
            )
        else:
            operations.append(
                ScheduledOperation(
                    at=now, kind="read", client_id=rng.choice(reader_list), key=key
                )
            )
    return Workload(
        operations,
        description=(
            f"owned-writers x{num_operations} over {len(keys)} keys, "
            f"{len(writers)} writers (zipf s={skew}, "
            f"writes={write_fraction:.0%}, rmw={rmw_fraction:.0%}, "
            f"steals={steal_fraction:.0%})"
        ),
    )


def churn_workload(
    num_registers: int,
    readers: Sequence[str],
    writer: str = "w",
    mean_gap: float = 0.5,
    op_gap: float = 2.0,
    drop_fraction: float = 0.5,
    revisit_fraction: float = 0.15,
    revisit_delay: float = 200.0,
    seed: int = 0,
    start: float = 0.0,
) -> Workload:
    """A cold-key churn workload: registers are created, used briefly, dropped.

    The dynamic-keyspace stress scenario.  Register ``i`` is created at a
    Poisson arrival time, written once by *writer* and read once by a random
    reader shortly after; a *revisit_fraction* of the registers gets one more
    read *revisit_delay* later — by then the register has usually been
    evicted under a ``max_resident`` bound, so the revisit exercises the
    fault-on-access rehydration path — and a *drop_fraction* is dropped after
    its last operation.  Register ids are ``churn-<i>``; values embed the key,
    preserving the unique-value property the checkers rely on.
    """
    if num_registers < 1:
        raise ValueError("at least one register is required")
    if not readers:
        raise ValueError("at least one reader client is required")
    if mean_gap <= 0 or op_gap <= 0:
        raise ValueError("mean_gap and op_gap must be positive")
    if not 0.0 <= drop_fraction <= 1.0 or not 0.0 <= revisit_fraction <= 1.0:
        raise ValueError("drop_fraction and revisit_fraction must be within [0, 1]")
    rng = random.Random(seed)
    reader_list = list(readers)
    width = len(str(num_registers - 1))
    operations: List[ScheduledOperation] = []
    now = start
    for index in range(num_registers):
        now += rng.expovariate(1.0 / mean_gap)
        key = f"churn-{index:0{width}d}"
        operations.append(
            ScheduledOperation(at=now, kind="create", client_id=writer, key=key)
        )
        operations.append(
            ScheduledOperation(
                at=now, kind="write", client_id=writer, value=f"{key}:v1", key=key
            )
        )
        last = now + op_gap
        operations.append(
            ScheduledOperation(
                at=last, kind="read", client_id=rng.choice(reader_list), key=key
            )
        )
        if rng.random() < revisit_fraction:
            last = now + revisit_delay
            operations.append(
                ScheduledOperation(
                    at=last, kind="read", client_id=rng.choice(reader_list), key=key
                )
            )
        if rng.random() < drop_fraction:
            operations.append(
                ScheduledOperation(
                    at=last + op_gap, kind="drop", client_id=writer, key=key
                )
            )
    return Workload(
        operations,
        description=(
            f"churn x{num_registers} registers "
            f"(drop={drop_fraction:.0%}, revisit={revisit_fraction:.0%})"
        ),
    )


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


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #


def workload_event_budget(cluster: SimCluster, workload: Workload) -> int:
    """An event budget that scales with the workload instead of a fixed cap.

    The cluster's default ``max_events_per_run`` guards interactive runs
    against livelock, but a large healthy workload legitimately needs more:
    every operation costs a bounded number of events per process (broadcast
    deliveries, acks, timers, retry rounds and — unbatched — one delivery
    event per message, which batching would otherwise collapse).  The budget
    is proportional to ``operations x processes`` with a generous constant, so
    it stays a livelock tripwire while never firing on healthy runs; the
    cluster default remains the floor for tiny workloads.
    """
    num_processes = max(1, len(cluster.processes))
    events_per_operation = 12 * num_processes + 24
    return max(
        cluster.max_events_per_run, len(workload) * events_per_operation
    )


def all_done(handles: Sequence[OperationHandle]) -> Callable[[], bool]:
    """``lambda: all(h.done for h in handles)`` without the rescan.

    The simulator evaluates its run condition before every event, and a
    handle never un-completes, so a cursor past the completed prefix answers
    the same question in amortised O(1) instead of O(prefix).  *handles*
    must not change while the condition is in use.
    """
    cursor = 0

    def condition() -> bool:
        nonlocal cursor
        while cursor < len(handles) and handles[cursor].done:
            cursor += 1
        return cursor == len(handles)

    return condition


def run_workload(cluster: SimCluster, workload: Workload) -> List[OperationHandle]:
    """Drive *cluster* through *workload*; returns the operation handles.

    Operations are invoked at their scheduled virtual time.  If the owning
    client is still busy, the invocation waits for the outstanding operation to
    finish first (preserving well-formedness while keeping cross-client
    concurrency intact).  Each handle records the schedule time as
    ``scheduled_at``, so deferred invocations keep their queueing delay
    (``invoked_at - scheduled_at``) measurable.
    """
    handles: List[OperationHandle] = []
    budget = workload_event_budget(cluster, workload)
    for op in workload.sorted():
        if op.at > cluster.now:
            cluster.run_for(op.at - cluster.now, max_events=budget)
        client = (
            cluster.writer if op.kind == "write" else cluster.reader(op.client_id)
        )
        if client.busy:
            cluster.run(
                until=lambda client=client: not client.busy, max_events=budget
            )
        if op.kind == "write":
            handle = cluster.start_write(op.value)
        else:
            handle = cluster.start_read(op.client_id)
        handle.scheduled_at = op.at
        handles.append(handle)
    cluster.run(until=all_done(handles), max_events=budget)
    return handles


def run_store_workload(store, workload: Workload) -> List[OperationHandle]:
    """Drive a :class:`~repro.store.sim.ShardedSimStore` through *workload*.

    Every operation must name a key.  Deferral happens per (client, key): a
    client busy on one register can still invoke on another, so only true
    per-register conflicts are queued — the concurrency the sharded store
    exists to unlock.  Writes are issued by the client the operation names
    (any client may write an MWMR key; generators targeting SWMR keys name
    the configured writer).  Handles record ``scheduled_at`` like
    :func:`run_workload`.

    ``create`` operations add the key to the live keyspace; ``drop``
    operations first wait for every handle already issued on the key to
    complete (a drop must not race the key's own operations), then remove it.
    Neither produces a handle.
    """
    handles: List[OperationHandle] = []
    per_key: dict = {}
    cluster = store.cluster
    budget = workload_event_budget(cluster, workload)
    for op in workload.sorted():
        if op.key is None:
            raise ValueError(f"store workloads need a key on every operation: {op}")
        if op.at > cluster.now:
            cluster.run_for(op.at - cluster.now, max_events=budget)
        if op.kind == "create":
            store.create_register(op.key)
            continue
        if op.kind == "drop":
            pending = [h for h in per_key.get(op.key, ()) if not h.done]
            if pending:
                cluster.run(until=all_done(pending), max_events=budget)
            store.drop_register(op.key)
            continue
        client_id = op.client_id
        if store.client_busy(client_id, op.key):
            cluster.run(
                until=lambda c=client_id, k=op.key: not store.client_busy(c, k),
                max_events=budget,
            )
        if op.kind == "write":
            handle = store.start_write(op.key, op.value, client_id=client_id)
        elif op.kind == "rmw":
            # The scheduled value is the (unique) value the RMW installs; the
            # transform still observes the current value atomically, which is
            # what stamps the conditional metadata the checker verifies.
            handle = store.start_read_modify_write(
                op.key, lambda _current, val=op.value: val, client_id=client_id
            )
        else:
            handle = store.start_read(op.key, op.client_id)
        handle.scheduled_at = op.at
        handles.append(handle)
        per_key.setdefault(op.key, []).append(handle)
    cluster.run(until=all_done(handles), max_events=budget)
    return handles
