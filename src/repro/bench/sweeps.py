"""Store sweeps S1-S5, S7, S8: one runner, each sweep a table of bindings.

The experiments of :mod:`repro.bench.experiments` exercise the paper's single
register; these sweeps exercise the sharded store built around it — shard
scaling (S1), batching (S2), contended multi-writer keys (S3), crash/recovery
from the write-ahead log (S4), read leases (S5), writer leases (S7) and
topology scenarios plus dynamic-keyspace churn (S8).  S6, the codec
micro-benchmark, is retired.  Like the experiments they are virtual time on
the deterministic simulator, so every table is reproducible byte for byte;
the one exception is the S8 ``asyncio`` churn row, which runs the real
runtime on real timers.

A run is a frozen :class:`StoreRun` — the deployment, the store capabilities it
switches on, and the workload generator with its arguments — and :func:`run`
is the only place a sweep builds a store: build, drive, drain, verify (a
history that fails its checker raises, so no sweep reports a number from an
inconsistent store).  The ``*_run`` functions bind one workload family's
parameters into a spec; each sweep is a list of labelled specs plus the columns
it reads off the verified stores, with :func:`~repro.bench.harness.summarize`
as the one "stats over these handles" helper.

The defaults of the sweep functions are the sizes ``run-experiment S<n>``
prints; tests call the same functions with smaller arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.config import SystemConfig
from ..core.protocol import LuckyAtomicProtocol
from ..sim.byzantine import ForgeHighTimestampStrategy
from ..sim.cluster import OperationHandle
from ..sim.failures import FailureSchedule, NetworkSchedule
from ..sim.topology import Topology
from ..store.sharding import StrategyFactory
from ..store.sim import ShardedSimStore
from ..workload.generator import (
    ScheduledOperation,
    Workload,
    churn_workload,
    contended_writers_workload,
    dense_store_workload,
    keyspace_workload,
    owned_writers_workload,
    run_store_workload,
    value_sequence,
)
from .harness import ExperimentTable, summarize

#: Rank 1 of the Zipf popularity order: the key S5 and S7 report on.
HOT_KEY = "k1"


# --------------------------------------------------------------------------- #
# The one runner
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StoreRun:
    """One simulated store run: deployment, capabilities, workload.

    The store hosts keys ``k1..k<num_keys>`` (none for a dynamic keyspace).
    ``generator`` is called with the deployment-derived arguments — ``keys``
    when there are any, ``readers``, and ``writers`` (the first ``num_writers``
    clients) when ``num_writers`` is set — plus ``workload_args``.  Without a
    ``topology`` every link has a fixed delay of one time unit.
    """

    config: SystemConfig
    num_keys: int
    generator: Callable[..., Workload]
    workload_args: Mapping[str, Any] = field(default_factory=dict)
    num_writers: int = 0
    batching: bool = True
    mwmr: Any = False
    leases: bool = False
    writer_leases: bool = False
    lease_duration: float = 400.0
    durable: bool = False
    failures: Optional[FailureSchedule] = None
    topology: Optional[Topology] = None
    frame_overhead: float = 0.0
    max_resident: Optional[int] = None
    byzantine: Optional[Dict[str, StrategyFactory]] = None


def run(spec: StoreRun) -> ShardedSimStore:
    """Build the store *spec* describes, drive its workload, drain, verify."""
    config = spec.config
    keys = [f"k{i}" for i in range(1, spec.num_keys + 1)]
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        byzantine=spec.byzantine,
        batching=spec.batching,
        mwmr=spec.mwmr,
        leases=spec.leases,
        writer_leases=spec.writer_leases,
        lease_duration=spec.lease_duration,
        max_resident=spec.max_resident,
        durable=spec.durable,
        failures=spec.failures,
        topology=spec.topology,
        frame_overhead=spec.frame_overhead,
    )
    deployment: Dict[str, Any] = {"readers": config.reader_ids()}
    if keys:
        deployment["keys"] = keys
    if spec.num_writers:
        deployment["writers"] = config.client_ids()[: spec.num_writers]
    run_store_workload(store, spec.generator(**deployment, **spec.workload_args))
    # Drain: stragglers land and recoveries scheduled after the last
    # completion still fire, so every incarnation and WAL replay is
    # accounted for before the check.
    store.run_until_quiescent()
    store.verify_atomic()
    return store


def _table(
    experiment_id: str, title: str, rows: List[Dict[str, Any]], *notes: str
) -> ExperimentTable:
    """A table whose columns are the keys every one of its *rows* names, in order."""
    return ExperimentTable(
        experiment_id, title, columns=list(rows[0]), rows=rows, notes=list(notes)
    )


# --------------------------------------------------------------------------- #
# Spec bindings, one per workload family
# --------------------------------------------------------------------------- #


def dense_run(
    num_shards: int, num_operations: int = 96, t: int = 1, **capabilities: Any
) -> StoreRun:
    """The saturating workload of S1/S2/S4 on a *num_shards*-key store.

    Operations arrive far faster than they complete (one every 0.05 time
    units), so what limits the completion rate is how many of them a client
    can keep in flight: one per key.  ``capabilities`` are :class:`StoreRun`
    fields (``batching``, ``frame_overhead``, ``durable``, ``failures``, ...).
    """
    return StoreRun(
        config=SystemConfig.balanced(t, 0, num_readers=2),
        num_keys=num_shards,
        generator=dense_store_workload,
        workload_args={"num_operations": num_operations, "gap": 0.05},
        **capabilities,
    )


def contended_run(
    num_shards: int, num_operations: int = 96, num_writers: int = 3, skew: float = 0.8
) -> StoreRun:
    """S3: *num_writers* clients racing on Zipf-popular all-MWMR keys.

    The writers are the configured writer plus the first readers (on an MWMR
    register every client hosts both roles).  Arrivals are dense, so with one
    shard each client serializes on one register and with N shards the per-key
    multiplexing overlaps them — the saturation logic of S1 with genuinely
    concurrent writers on the popular keys.
    """
    return StoreRun(
        config=SystemConfig.balanced(1, 0, num_readers=max(3, num_writers - 1)),
        num_keys=num_shards,
        generator=contended_writers_workload,
        workload_args={
            "num_operations": num_operations,
            "write_fraction": 0.6,
            "skew": skew,
            "mean_gap": 0.05,
        },
        num_writers=num_writers,
        mwmr=True,
    )


def _lucky_write_per_key(keys: Sequence[str], readers: Sequence[str]) -> Workload:
    """One well-spaced (lucky) write on each key of a two-key store."""
    first, second = keys
    return Workload(
        [
            ScheduledOperation(at=0.0, kind="write", client_id="w", value="v1", key=first),
            ScheduledOperation(at=5.0, kind="write", client_id=readers[0], value="v1", key=second),
        ],
        description="a lucky write on each of two keys",
    )


def mixed_store_run() -> StoreRun:
    """S3's probe: ``k1`` single-writer and ``k2`` multi-writer on one store.

    Declaring one register multi-writer must cost its single-writer sibling
    nothing: the SWMR write stays one round while the MWMR write pays exactly
    one extra query round.
    """
    return StoreRun(
        config=SystemConfig.balanced(1, 0, num_readers=2),
        num_keys=2,
        generator=_lucky_write_per_key,
        mwmr="k2",
    )


def zipf_run(
    num_operations: int = 150,
    num_keys: int = 6,
    byzantine: bool = False,
    seed: int = 0,
    t: int = 2,
    b: int = 1,
    skew: float = 1.2,
    write_fraction: float = 0.4,
    mean_gap: float = 1.0,
    **capabilities: Any,
) -> StoreRun:
    """A Zipf-skewed single-writer keyspace workload (S1's Byzantine note, S5).

    With ``byzantine`` the first server runs the forge-high-timestamp attack
    on every shard — each register tolerates ``b`` malicious servers
    independently, so every per-key history must stay atomic.
    """
    return StoreRun(
        config=SystemConfig.balanced(t, b, num_readers=3),
        num_keys=num_keys,
        generator=keyspace_workload,
        workload_args={
            "num_operations": num_operations,
            "write_fraction": write_fraction,
            "skew": skew,
            "mean_gap": mean_gap,
            "seed": seed,
        },
        byzantine={"s1": ForgeHighTimestampStrategy} if byzantine else None,
        **capabilities,
    )


def _swmr_shadow_workload(keys: Sequence[str], **owned_args: Any) -> Workload:
    """The SWMR shadow of an owned-writers workload: same arrival times.

    Every write and RMW becomes a plain write by the configured writer ``w``
    (an SWMR register accepts no other writer and no conditional operations),
    with fresh per-key unique values; reads are unchanged.  Identical arrival
    times make the comparison between the leased MWMR store and the paper's
    1-round SWMR fast path apples-to-apples.
    """
    workload = owned_writers_workload(keys=keys, **owned_args)
    values = {key: value_sequence(prefix=f"{key}:swmr:v") for key in keys}
    operations = [
        ScheduledOperation(
            at=op.at, kind="write", client_id="w", value=next(values[op.key]), key=op.key
        )
        if op.kind in ("write", "rmw")
        else op
        for op in workload.sorted()
    ]
    return Workload(operations, description=f"swmr shadow of: {workload.description}")


def owned_writers_run(
    num_keys: int = 4, num_operations: int = 96, swmr_shadow: bool = False, **capabilities: Any
) -> StoreRun:
    """S7: a write-heavy Zipf workload where each key has a dominant owner.

    Three writers; owners write and read-modify-write their keys, and an
    occasional competing "steal" write forces a writer-lease revocation.
    ``swmr_shadow`` replays the same arrivals as plain writes of the single
    writer (the baseline).
    """
    return StoreRun(
        config=SystemConfig.balanced(1, 0, num_readers=3),
        num_keys=num_keys,
        generator=_swmr_shadow_workload if swmr_shadow else owned_writers_workload,
        workload_args={
            "num_operations": num_operations,
            "write_fraction": 0.55,
            "rmw_fraction": 0.15,
            "steal_fraction": 0.05,
            "skew": 1.1,
            "mean_gap": 0.2,
        },
        num_writers=3,
        **capabilities,
    )


# --------------------------------------------------------------------------- #
# S1-S3: throughput against the shard count
# --------------------------------------------------------------------------- #


def sharded_throughput_sweep(
    shard_counts: Iterable[int] = range(1, 9), num_operations: int = 96
) -> ExperimentTable:
    """S1: aggregate throughput of the same dense workload as shards are added.

    With one shard every operation of a client serializes behind its
    predecessor; with N shards the per-key multiplexing overlaps up to N
    operations per client.  Each row also reports the encoded wire bytes of
    every frame the run put on the (simulated) line.
    """
    rows: List[Dict[str, Any]] = []
    for num_shards in shard_counts:
        store = run(dense_run(num_shards, num_operations))
        stats = summarize(store.completed_operations())
        baseline = rows[0]["throughput"] if rows else stats.throughput
        rows.append(
            {
                "shards": num_shards,
                "operations": stats.count,
                "makespan": stats.span,
                "throughput": stats.throughput,
                "speedup": stats.throughput / baseline,
                "bytes_on_wire": store.bytes_sent,
                "bytes_per_op": store.bytes_sent / stats.count,
            }
        )
    zipf = run(zipf_run(byzantine=True))
    return _table(
        "S1",
        "sharded store: aggregate throughput vs shard count",
        rows,
        "virtual-time throughput on the in-memory simulator; every per-key "
        "history passed the atomicity checker before being counted",
        f"Zipf keyspace (t={zipf.config.t} b={zipf.config.b}, {len(zipf.keys)} keys, "
        "1 Byzantine server forging high timestamps on every shard): all "
        "per-key histories atomic",
    )


def batching_sweep(
    shard_counts: Iterable[int] = (1, 4, 8), num_operations: int = 96
) -> ExperimentTable:
    """S2: batched vs unbatched aggregate throughput under per-frame overhead.

    Every transport frame occupies its sender's outgoing line for 0.1 time
    units, so at high shard counts the unbatched store is bound by
    per-message cost: the writer alone emits one frame per server per
    operation.  Batching coalesces everything buffered while the line is busy
    into one envelope per destination, so the frame count collapses and
    throughput returns to being limited by per-key concurrency.
    """
    frame_overhead = 0.1
    rows = []
    for num_shards in shard_counts:
        unbatched, batched = (
            run(
                dense_run(
                    num_shards, num_operations, batching=batching, frame_overhead=frame_overhead
                )
            )
            for batching in (False, True)
        )
        unbatched_rate, batched_rate = (
            summarize(store.completed_operations()).throughput for store in (unbatched, batched)
        )
        rows.append(
            {
                "shards": num_shards,
                "operations": num_operations,
                "unbatched": unbatched_rate,
                "batched": batched_rate,
                "speedup": batched_rate / unbatched_rate,
                "frames_unbatched": unbatched.frames_sent,
                "frames_batched": batched.frames_sent,
                "bytes_unbatched": unbatched.bytes_sent,
                "bytes_batched": batched.bytes_sent,
            }
        )
    return _table(
        "S2",
        f"sharded store: batched vs unbatched throughput (frame overhead {frame_overhead})",
        rows,
        "frames from one process serialize on its line for the stated "
        "overhead; a batch is one frame, so batching amortises the "
        "per-message cost that binds the unbatched store at scale",
        "every per-key history passed the atomicity checker in both modes",
    )


def mwmr_sweep(
    shard_counts: Iterable[int] = (1, 2, 4, 8), num_operations: int = 96
) -> ExperimentTable:
    """S3: contended multi-writer throughput as the shard count grows."""
    rows: List[Dict[str, Any]] = []
    for num_shards in shard_counts:
        spec = contended_run(num_shards, num_operations)
        store = run(spec)
        stats = summarize(store.completed_operations())
        baseline = rows[0]["throughput"] if rows else stats.throughput
        rows.append(
            {
                "shards": num_shards,
                "operations": stats.count,
                "writers": spec.num_writers,
                "makespan": stats.span,
                "throughput": stats.throughput,
                "speedup": stats.throughput / baseline,
                "bytes_on_wire": store.bytes_sent,
            }
        )
    swmr_write, mwmr_write = run(mixed_store_run()).completed_operations()
    return _table(
        "S3",
        f"MWMR store: contended-writers throughput vs shard count "
        f"({spec.num_writers} writers, zipf s={spec.workload_args['skew']})",
        rows,
        "every per-key history passed the multi-writer atomicity checker "
        "(lexicographic (ts, writer_id) order) before being counted",
        "SWMR fast path unchanged on a mixed store: lucky SWMR write "
        f"rounds={swmr_write.rounds} fast={swmr_write.fast}; lucky MWMR "
        f"write rounds={mwmr_write.rounds} (one extra query round)",
    )


# --------------------------------------------------------------------------- #
# S4: crash/recovery
# --------------------------------------------------------------------------- #


def _outage_phases(
    store: ShardedSimStore, windows: Sequence[Tuple[float, float]]
) -> Dict[str, Tuple[List[OperationHandle], float]]:
    """Split *store*'s completed operations into healthy/outage/recovered.

    An operation belongs to ``outage`` when its execution interval overlaps an
    outage window — that is what the crash actually *affects*: a write started
    just before the crash or finishing just after the recovery still paid the
    degraded quorum.  ``recovered`` are operations invoked after the last
    recovery (the catch-up), ``healthy`` the untouched rest.  Each phase comes
    with the virtual time it spans, the divisor of its throughput.
    """
    completed = store.completed_operations()
    start = min(handle.invoked_at for handle in completed)
    end = max(handle.completed_at for handle in completed)
    last_recovery = max(recover_at for _, recover_at in windows)
    handles: Dict[str, List[OperationHandle]] = {"healthy": [], "outage": [], "recovered": []}
    for handle in completed:
        if any(
            handle.invoked_at < recover_at and crash_at < handle.completed_at
            for crash_at, recover_at in windows
        ):
            handles["outage"].append(handle)
        elif handle.invoked_at >= last_recovery:
            handles["recovered"].append(handle)
        else:
            handles["healthy"].append(handle)
    spans = {
        "outage": sum(
            max(0.0, min(recover_at, end) - max(crash_at, start))
            for crash_at, recover_at in windows
        ),
        "recovered": max(0.0, end - max(last_recovery, start)),
    }
    spans["healthy"] = max(0.0, (end - start) - spans["outage"] - spans["recovered"])
    return {phase: (handles[phase], spans[phase]) for phase in handles}


def recovery_sweep(num_shards: int = 4, num_operations: int = 96, t: int = 2) -> ExperimentTable:
    """S4: throughput trajectory around crash/recovery events.

    Three runs of the same dense workload:

    1. *wal-off* — the non-durable store (the baseline trajectory);
    2. *wal-on* — durable, no failures: the same rows, because virtual time is
       blind to WAL bookkeeping (its wall-clock cost is priced by the
       ``mem_durable_w_c64`` workload and the ledger's ``persist.*`` rows);
    3. *crash-recover* — durable under a schedule with **two** outage windows,
       each downing ``t`` servers that later recover from their WALs.  Total
       distinct crashes are ``2t > t``, yet at no instant are more than ``t``
       servers down — the scenario the paper's fault model cannot even
       express, made schedulable by recovery.  During an outage the fast-path
       quorum ``S - fw`` is unreachable, so operations fall back to slow
       rounds: the throughput dip and the catch-up after recovery are the
       phase rows of the table.
    """
    store_off = run(dense_run(num_shards, num_operations, t))
    store_on = run(dense_run(num_shards, num_operations, t, durable=True))
    # Two disjoint outage windows sized as a fraction of the healthy makespan,
    # each downing a different group of t servers; both groups recover.
    makespan = summarize(store_off.completed_operations()).span
    servers = store_on.config.server_ids()
    outage = max(0.2 * makespan, 4.0)
    windows = [
        (0.25 * makespan, 0.25 * makespan + outage),
        (0.25 * makespan + 1.5 * outage, 0.25 * makespan + 2.5 * outage),
    ]
    schedule = FailureSchedule()
    for (crash_at, recover_at), group in zip(
        windows, (servers[:t], servers[t : 2 * t]), strict=True
    ):
        for server_id in group:
            schedule.crash(server_id, at=crash_at, recover_at=recover_at)
    store_crash = run(dense_run(num_shards, num_operations, t, durable=True, failures=schedule))

    def steady(store: ShardedSimStore) -> Dict[str, Tuple[List[OperationHandle], float]]:
        completed = store.completed_operations()
        return {"steady": (completed, summarize(completed).span)}

    rows = []
    for scenario, store, phases in (
        ("wal-off", store_off, steady(store_off)),
        ("wal-on", store_on, steady(store_on)),
        ("crash-recover", store_crash, _outage_phases(store_crash, windows)),
    ):
        for phase, (handles, span) in phases.items():
            stats = summarize(handles)
            rows.append(
                {
                    "scenario": scenario,
                    "phase": phase,
                    "operations": stats.count,
                    "throughput": stats.count / span if span > 0 else 0.0,
                    "mean_latency": stats.mean_latency,
                    "fast_fraction": stats.fast_fraction,
                    "bytes_on_wire": store.bytes_sent,
                }
            )
    return _table(
        "S4",
        f"durable store: throughput around crash/recovery "
        f"({num_shards} shards, t={t}, 2 outages of {t} server(s))",
        rows,
        f"crash schedule: {schedule.total_crashes(servers)} total crashes "
        f"(> t={t}) across 2 windows, at most {t} servers down at once; all "
        "recovered servers replayed their WAL and every per-key history "
        "passed the atomicity checker",
        "WAL bookkeeping overhead is wall-clock only (virtual-time throughput "
        f"is durability-blind): appending {store_on.wal_records} records",
    )


# --------------------------------------------------------------------------- #
# S5 / S7: leases on the hot key
# --------------------------------------------------------------------------- #


def lease_sweep(num_keys: int = 4, num_operations: int = 96) -> ExperimentTable:
    """S5: hot-key read throughput with leases off vs on, same arrivals.

    Arrivals are dense relative to a one-round read, so without leases each
    reader serializes its hot-key reads behind one another — the paper's best
    case, every read one lucky round — and the backlog grows; with leases the
    same reads complete locally in zero rounds, falling back to the protocol
    (and re-acquiring) around each write's revocation.
    """
    skew, write_fraction = 1.1, 0.04
    rows: List[Dict[str, Any]] = []
    for scenario, leases in (("no-lease", False), ("leased", True)):
        store = run(
            zipf_run(
                num_operations,
                num_keys,
                t=1,
                b=0,
                skew=skew,
                write_fraction=write_fraction,
                mean_gap=0.2,
                leases=leases,
            )
        )
        completed = store.completed_operations()
        hot = summarize([h for h in completed if h.kind == "read" and h.register_id == HOT_KEY])
        baseline = rows[0]["hot_read_throughput"] if rows else hot.throughput
        rows.append(
            {
                "scenario": scenario,
                "operations": len(completed),
                "hot_reads": hot.count,
                "hot_read_throughput": hot.throughput,
                "hot_read_latency": hot.mean_latency,
                "lease_fraction": hot.lease_fraction,
                "speedup": hot.throughput / baseline if baseline else 0.0,
                "bytes_on_wire": store.bytes_sent,
            }
        )
    return _table(
        "S5",
        f"read leases: hot-key reads, leases off vs on "
        f"({num_keys} keys, zipf s={skew}, writes={write_fraction:.0%})",
        rows,
        "identical Zipf arrivals; the no-lease run is the paper's 1-round "
        "lucky fast path, the leased run serves hot-key reads locally in "
        "zero rounds and re-acquires after every write's revocation",
        f"{store.lease_reads()} reads were served from leases across all "
        "keys; every per-key history (lease-served reads included) passed "
        "the atomicity checker in both runs",
    )


def writer_lease_sweep(num_keys: int = 4, num_operations: int = 96) -> ExperimentTable:
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
    rows: List[Dict[str, Any]] = []
    for scenario, capabilities in (
        ("swmr-1-round", {"swmr_shadow": True}),
        ("no-wlease", {"mwmr": True}),
        ("wlease", {"mwmr": True, "writer_leases": True}),
    ):
        spec = owned_writers_run(num_keys, num_operations, **capabilities)
        store = run(spec)
        completed = store.completed_operations()
        # Failed CAS attempts complete as reads and are excluded; successful
        # RMWs complete as writes and are included.
        hot = summarize(
            [
                h
                for h in completed
                if h.register_id == HOT_KEY
                and h.kind in ("write", "rmw", "cas")
                and h.result.kind == "write"
            ]
        )
        baseline = rows[0]["hot_write_throughput"] if rows else hot.throughput
        rows.append(
            {
                "scenario": scenario,
                "operations": len(completed),
                "hot_writes": hot.count,
                "hot_write_throughput": hot.throughput,
                "hot_write_latency": hot.mean_latency,
                "mean_rounds": hot.mean_rounds,
                "lease_fraction": hot.lease_fraction,
                "vs_swmr": hot.throughput / baseline if baseline else 0.0,
                "bytes_on_wire": store.bytes_sent,
            }
        )
    conditional_writes = sum(result.cas_writes for result in store.check_atomicity().values())
    workload = spec.workload_args
    return _table(
        "S7",
        f"writer leases: hot-key writes, SWMR baseline vs MWMR off/on "
        f"({num_keys} keys, {spec.num_writers} writers, zipf s={workload['skew']}, "
        f"steals={workload['steal_fraction']:.0%})",
        rows,
        "identical arrival times; the SWMR run is the paper's 1-round lucky "
        "fast path, the MWMR runs add the timestamp-query round which the "
        "owner's writer lease then elides again",
        f"{store.lease_writes()} writes were served in one round from writer "
        f"leases and {conditional_writes} conditional (RMW) writes were "
        "verified for conditional isolation; every per-key history passed "
        "the conditional-op checker in both MWMR runs",
    )


# --------------------------------------------------------------------------- #
# S8: topology sweep (zones, partitions, gray failures, skew, cold-key churn)
# --------------------------------------------------------------------------- #


def _worst_round_trip(topology: Topology, config: SystemConfig) -> float:
    round_trips = [
        topology.round_trip_bound(client_id, config.server_ids())
        for client_id in config.client_ids()
    ]
    return max((rt for rt in round_trips if rt is not None), default=10.0)


def topology_run(profile: str, scenario: str = "healthy", num_operations: int = 60) -> StoreRun:
    """One S8 cell: the dense workload on a profile topology under one fault.

    The workload is deterministic and well spaced (one operation per worst
    client round trip, four keys round-robined), so in a healthy profile
    nearly every operation is lucky; the scenario then quantifies how much of
    the 1-round fast path survives the fault.

    The configuration runs with ``fw = fr = 0`` — the paper's "luckiest"
    setting, where the 1-round write needs PW_ACKs from *all* ``S`` servers
    by decision time.  That is deliberate: with ``fw >= 1`` the fast path
    already tolerates a server loss, so a single-zone partition would not
    register at all.  Operations still complete through the ``S - t`` round
    quorum either way — degradation, not collapse.
    """
    config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=2)
    server_ids, client_ids = config.server_ids(), config.client_ids()
    topology = Topology.profile(profile, server_ids=server_ids, client_ids=client_ids)
    gap = _worst_round_trip(topology, config)
    span = num_operations * gap
    if scenario == "partition":
        # Sever the first server's zone for the middle third of the run.
        # Clients of that zone are first moved out: an op invoked behind the
        # cut has no retry path across it, so it would stall for the whole
        # window rather than degrade.
        victim = topology.zone_of(server_ids[0])
        others = [zone for zone in topology.zone_names if zone != victim]
        if not others:
            raise ValueError(f"the partition scenario needs a multi-zone profile, not {profile!r}")
        for client_id in client_ids:
            if topology.zone_of(client_id) == victim:
                topology.assign(client_id, others[0])
        topology.schedule = NetworkSchedule().partition(
            [victim], others, start=0.35 * span, end=0.65 * span
        )
    elif scenario == "gray":
        # The last server's links go slow-but-alive by a full round trip:
        # its replies always miss round-1 timers, but quorums still form.
        topology.set_gray(server_ids[-1], gap)
    elif scenario == "skew":
        # The writer's clock runs fast: its round-1 timer fires at half the
        # nominal duration, before the slowest link's acks can arrive, so
        # the writer decides on a round quorum instead of the full fleet.
        topology.set_skew(config.writer_id, 0.5)
    elif scenario != "healthy":
        raise ValueError(f"unknown topology scenario {scenario!r}")
    return StoreRun(
        config=config,
        num_keys=4,
        generator=dense_store_workload,
        workload_args={"num_operations": num_operations, "gap": gap},
        topology=topology,
    )


def churn_run(profile: str, num_registers: int = 800, max_resident: int = 128) -> StoreRun:
    """The cold-key churn cell: a dynamic keyspace under a resident bound.

    Registers are created, briefly used, revisited after going cold (the
    fault-on-access rehydration path) and mostly dropped, on the profile's
    healthy topology.
    """
    config = SystemConfig.balanced(1, 0, num_readers=2)
    return StoreRun(
        config=config,
        num_keys=0,
        generator=churn_workload,
        workload_args={"num_registers": num_registers},
        max_resident=max_resident,
        topology=Topology.profile(
            profile, server_ids=config.server_ids(), client_ids=config.client_ids()
        ),
    )


def run_asyncio_churn(num_registers: int = 800, max_resident: int = 128) -> Dict[str, Any]:
    """The asyncio-runtime churn row: create / write / read / drop in waves.

    Registers are processed a wave of 128 at a time with real concurrency on
    the asyncio cluster; every register is written and read once, half are
    dropped, and one early register is revisited per wave to exercise
    rehydration.  Per-key histories must check atomic.  This is the one row of
    any table that runs on real timers, so its counters vary run to run.
    """
    import asyncio

    from ..runtime.cluster import ShardedAsyncCluster

    wave = 128
    counters: Dict[str, Any] = {}

    async def _one(store: "ShardedAsyncCluster", index: int) -> bool:
        key = f"churn-{index:06d}"
        store.create_register(key)
        write = await store.write(key, f"{key}:v1")
        read = await store.read(key)
        ok = read.value == f"{key}:v1"
        if (index * 2654435761) % 1_000 < 500:
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
        store.verify_atomic()
        counters["fast"] = fast
        counters["evictions"] = store.evictions
        counters["rehydrations"] = store.rehydrations
        counters["operations"] = sum(len(node.operations) for node in store.client_nodes.values())

    ShardedAsyncCluster.run_scenario(
        LuckyAtomicProtocol(SystemConfig.balanced(1, 0, num_readers=2)),
        _scenario,
        keys=[],
        max_resident=max_resident,
        message_delay_s=0.0002,
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
        "atomic": "yes",
    }


def topology_sweep(
    profiles: Sequence[str] = ("lan", "wan-3dc"),
    scenarios: Sequence[str] = ("healthy", "partition", "gray", "skew"),
    num_operations: int = 60,
    churn: bool = True,
    churn_registers: int = 800,
    churn_resident: int = 128,
) -> ExperimentTable:
    """S8: fast-path survival across topology profiles × network scenarios.

    For every profile, the same well-spaced workload runs healthy and under a
    mid-run partition, a gray failure and a fast client clock; each cell
    reports how much of the paper's 1-round fast path survived, how many
    frames the partition dropped, and that atomicity held regardless.  With
    ``churn`` the sweep appends cold-key churn rows — a dynamic keyspace of
    *churn_registers* registers under a *churn_resident* memory bound — on
    the first profile's topology (sim) and on the asyncio runtime;
    ``churn_registers=10_000, churn_resident=1_000`` is the full-size churn
    (~20 s).
    """
    cells = [
        (profile, scenario, topology_run(profile, scenario, num_operations))
        for profile in profiles
        for scenario in scenarios
        # A single-zone profile has nothing to sever.
        if not (scenario == "partition" and profile == "lan")
    ]
    if churn:
        label = f"churn x{churn_registers} (resident<={churn_resident})"
        cells.append((profiles[0], label, churn_run(profiles[0], churn_registers, churn_resident)))
    rows = []
    for profile, scenario, spec in cells:
        store = run(spec)
        handles = store.cluster.operations
        stats = summarize(handles)
        rows.append(
            {
                "profile": profile,
                "scenario": scenario,
                "operations": len(handles),
                "completed": stats.count,
                "fast_rate": stats.fast_fraction,
                "drops": store.topology.partition_drops,
                "evictions": store.evictions,
                "rehydrations": store.rehydrations,
                "throughput": stats.throughput,
                "atomic": "yes",
            }
        )
    if churn:
        rows.append(run_asyncio_churn(churn_registers, churn_resident))
    return _table(
        "S8",
        "topology sweep: fast-path survival across zones and scenarios",
        rows,
        "fast_rate is the fraction of completed operations that finished in "
        "one round; atomicity is checked per key by store.verify_atomic() "
        "before any number is reported (partitions cost the fast path "
        "and availability, never linearizability)",
        "partition rows sever the first server's zone for the middle third "
        "of the run; gray rows slow one server's links by a full round "
        "trip; skew rows run the writer's clock at double speed (its "
        "round-1 timer fires at half the nominal duration)",
    )


#: The sweeps by table id, in the order ``run-experiment all`` prints them.
STORE_SWEEPS = {
    "S1": sharded_throughput_sweep,
    "S2": batching_sweep,
    "S3": mwmr_sweep,
    "S4": recovery_sweep,
    "S5": lease_sweep,
    "S7": writer_lease_sweep,
    "S8": topology_sweep,
}
