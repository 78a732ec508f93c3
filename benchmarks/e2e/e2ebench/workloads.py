"""The five workloads and the closed-loop load generator that drives them.

One OS process, one thread: the asyncio loop hosts the cluster *and* the load
generator, and a "client" is a coroutine that sends its next operation when
the previous one completed.  The generator only produces operations and
stamps them; what was measured is worked out afterwards from the raw stamps
(:mod:`metrics`), and every stamped operation goes to the checker.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import resource
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import adapter

#: Keys of every asyncio workload, split into one contiguous range per client.
NUM_KEYS = 4096
#: Consecutive operations a client spends on a key before moving to the next.
#: The checker is quadratic in a key's history, so this bound is what makes
#: checking every operation affordable.
OPS_PER_VISIT = 32
WARMUP_S = 1.0
#: ``setup_s`` is the median of at least 3 set-ups; more than 3 only within this.
SETUP_BUDGET_S = 1.5
#: An operation still in flight after this long counts as failed.
DEADLINE_S = 5.0
#: Period of the sampler that reads the clocks, runs the reference kernel and
#: enforces the deadline.
TICK_S = 0.02
#: The simulator workload at the default ``--seconds``; scaled in proportion.
SIM_OPS = 8000
SIM_KEYS = 1024
SIM_SEGMENTS = 24
#: Blocking write + read pairs timed one by one after the simulated workload,
#: with a tick of the sampler after every ``SIM_CALL_BATCH`` pairs.
SIM_CALLS = 1500
SIM_CALL_BATCH = 20
DEFAULT_SECONDS = 12
#: Scratch directory of the benchmark, on the checkout's own disk (not tmpfs):
#: WAL files while a run lasts, span dumps of traced runs.
RUN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".run")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tcp: bool = False
    clients: int = 8
    read_share: float = 0.5
    durable: bool = False
    leased: bool = False
    simulated: bool = False
    #: Readers of the deployment; every leased client needs an id of its own.
    num_readers: int = 2


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tcp_lucky_c2",
            "the paper's headline case where the round-1 timer binds: 2 clients on "
            "loopback TCP leave the core half idle, so latency is quorum wait + timer wait",
            tcp=True,
            clients=2,
        ),
        Workload(
            "tcp_lucky_c8",
            "same cluster with 8 clients: the core is just saturated by many small "
            "frames, so per-frame costs in wire and transport show here",
            tcp=True,
            clients=8,
        ),
        Workload(
            "tcp_saturate_c64",
            "same cluster with 64 clients: CPU-bound on large batches, the timer is "
            "hidden, so codec, batching, mailbox and router changes show here",
            tcp=True,
            clients=64,
        ),
        Workload(
            "mem_durable_w_c64",
            "in-memory transport, file WAL with fsync on, 90 % writes: persist does "
            "the work, so a read-side gain that costs writes shows here",
            clients=64,
            read_share=0.1,
            durable=True,
        ),
        Workload(
            "mem_leased_c8",
            "every key mwmr + read leases + writer leases, 80 % reads: most reads "
            "are zero-round lease hits and writes pay revocation",
            clients=8,
            read_share=0.8,
            leased=True,
            num_readers=7,
        ),
        Workload(
            "sim_faulty_zipf",
            "deterministic simulator, t=2 b=1 with one Byzantine and one crashed "
            "server, Zipf keys: the only workload on the slow path",
            simulated=True,
        ),
    )
}


class _Cell:
    __slots__ = ("number", "name", "pair")

    def __init__(self, number: int, name: str, pair: Tuple[int, int]) -> None:
        self.number = number
        self.name = name
        self.pair = pair


def reference_kernel() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The sampler runs it at every tick (about 0.2 ms in 20 ms, 1 % of the
    loop's time, the same on every commit), so a run knows how fast its
    machine was *while it measured*; ``metrics`` says what that is used for.
    The work is what the program's own code is made of (small objects, string
    keys, dictionary inserts and lookups, attribute reads).  The fastest of
    three passes counts, so a cache left cold by the workload does not, while
    a slow-down that outlasts a pass does.
    """
    fastest = 1.0
    for _ in range(3):
        started = time.perf_counter()
        table: Dict[str, _Cell] = {}
        for number in range(150):
            cell = _Cell(number, f"k{number}", (number, number))
            table[cell.name] = cell
            if number & 1:
                table.get(f"k{number - 1}")
        sum(cell.number for cell in table.values())
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


@dataclass
class RawRun:
    """Everything one run stamped; ``metrics`` turns it into numbers."""

    workload: Workload
    seed: int
    seconds: float
    #: (key, client_id, written value or None, invoked, completed, completion)
    ops: List[tuple] = field(default_factory=list)
    #: (perf_counter, process_time, reference-kernel seconds), one per tick.
    samples: List[Tuple[float, float, float]] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    frames: int = 0
    wire_bytes: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    trace: Optional[Any] = None
    process_cpu_s: float = 0.0
    #: ``ru_maxrss`` when the window closed: the store and the stamps, not the
    #: checker's or the epilogue's working memory.
    peak_rss_mb: float = 0.0


def keys_of(count: int) -> List[str]:
    return [f"k{i:05d}" for i in range(count)]


@contextmanager
def wal_directory(tag: str, wanted: bool = True) -> Iterator[Optional[str]]:
    """A fresh directory next to the benchmark (the checkout's own disk, not
    tmpfs), removed on exit; ``None`` when the workload is not durable."""
    if not wanted:
        yield None
        return
    path = os.path.join(RUN_DIR, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# --------------------------------------------------------------------------- #
# asyncio workloads
# --------------------------------------------------------------------------- #


def _more_setups(timings: list, begun: float) -> bool:
    """Set up at least 3 times, and again for as long as ``SETUP_BUDGET_S`` lasts."""
    return len(timings) < 3 or time.perf_counter() - begun < SETUP_BUDGET_S


async def measure_setup(workload: Workload) -> List[float]:
    """Build and start the store several times; the seconds each took."""
    config = async_config(workload)
    keys = keys_of(NUM_KEYS)
    timings: List[float] = []
    begun = time.perf_counter()
    while _more_setups(timings, begun):
        with wal_directory("setup", workload.durable) as wal_dir:
            started = time.perf_counter()
            store = adapter.build_async_store(
                config, keys, workload.tcp, workload.leased, wal_dir
            )
            await store.start()
            timings.append(time.perf_counter() - started)
            await store.stop()
    return timings


def async_config(workload: Workload) -> Any:
    return adapter.system_config(t=1, b=0, fw=1, fr=0, num_readers=workload.num_readers)


async def run_async(
    workload: Workload, seed: int, seconds: float, traced: bool = False
) -> RawRun:
    """Warm up, measure for *seconds*, stop, then run the durable epilogue."""
    config = async_config(workload)
    keys = keys_of(NUM_KEYS)
    raw = RawRun(workload, seed, seconds)
    raw.trace = adapter.RunTrace(config) if traced else None
    with wal_directory(workload.name, workload.durable) as wal_dir:
        store = adapter.build_async_store(
            config, keys, workload.tcp, workload.leased, wal_dir, raw.trace
        )
        await store.start()
        try:
            await _drive(store, config, keys, raw)
        finally:
            await store.stop()
        if wal_dir is not None:
            await _durable_epilogue(workload, config, keys, wal_dir, raw)
    return raw


async def _drive(store: Any, config: Any, keys: List[str], raw: RawRun) -> None:
    workload = raw.workload
    ids = config.client_ids()
    readers = config.reader_ids()
    per_client = len(keys) // workload.clients
    in_flight = [0.0] * workload.clients
    stopping = False

    async def client(index: int) -> None:
        rng = random.Random(raw.seed * 1_000_003 + index)
        mine = keys[index * per_client : (index + 1) * per_client]
        if workload.leased:
            writer = reader = ids[index % len(ids)]
        else:
            writer, reader = config.writer_id, readers[index % len(readers)]
        position = rng.randrange(len(mine))
        written = 0
        while not stopping:
            key = mine[position % len(mine)]
            position += 1
            for _ in range(OPS_PER_VISIT):
                if stopping:
                    return
                is_read = rng.random() < workload.read_share
                raw.attempted += 1
                invoked = in_flight[index] = time.perf_counter()
                try:
                    if is_read:
                        value, who = None, reader
                        completion = await store.read(key, reader)
                    else:
                        written += 1
                        value, who = f"{key}:{written}", writer
                        completion = await store.write(key, value, writer)
                except Exception as exc:
                    raw.failures.append(f"{who} on {key}: {exc!r}")
                    return
                finally:
                    in_flight[index] = 0.0
                raw.ops.append((key, who, value, invoked, time.perf_counter(), completion))

    tasks = [asyncio.create_task(client(i), name=f"client-{i}") for i in range(workload.clients)]
    transport = store.transport
    try:
        await asyncio.sleep(WARMUP_S)
        gc.collect()
        if raw.trace is not None:
            raw.trace.tracer.recording = True
        frames, wire_bytes = transport.frames_sent, transport.bytes_sent
        end = time.perf_counter() + raw.seconds
        while True:
            now = time.perf_counter()
            raw.samples.append((now, time.process_time(), reference_kernel()))
            for index, since in enumerate(in_flight):
                if since and now - since > DEADLINE_S and not tasks[index].done():
                    tasks[index].cancel()
                    raw.failures.append(f"client {index}: no reply within {DEADLINE_S} s")
            if now >= end:
                break
            await asyncio.sleep(TICK_S)
        _close_window(raw)
        raw.frames = transport.frames_sent - frames
        raw.wire_bytes = transport.bytes_sent - wire_bytes
    finally:
        stopping = True
        if raw.trace is not None:
            raw.trace.tracer.recording = False
        _, pending = await asyncio.wait(tasks, timeout=DEADLINE_S)
        for task in pending:
            task.cancel()
            raw.failures.append(f"{task.get_name()}: still in flight at shutdown")
        await asyncio.gather(*tasks, return_exceptions=True)


async def _durable_epilogue(
    workload: Workload, config: Any, keys: List[str], wal_dir: str, raw: RawRun
) -> None:
    """Recover a new cluster from the WAL files and read every written key back."""
    last_acked: Dict[str, Any] = {}
    for key, _who, value, _invoked, _completed, completion in raw.ops:
        if completion.kind == "write":
            last_acked[key] = value
    started = time.perf_counter()
    store = adapter.build_async_store(config, keys, workload.tcp, workload.leased, wal_dir)
    await store.start()
    raw.counters["recover_ms"] = (time.perf_counter() - started) * 1000.0
    try:
        written = list(last_acked)
        lost = 0
        for start in range(0, len(written), 64):
            chunk = written[start : start + 64]
            reads = await asyncio.gather(*(store.read(key) for key in chunk))
            lost += sum(
                1 for key, read in zip(chunk, reads) if read.value != last_acked[key]
            )
    finally:
        await store.stop()
    raw.counters["lost_acked_writes"] = float(lost)
    if lost:
        raw.failures.append(f"{lost} acknowledged writes lost across recovery")


def records_by_key(raw: RawRun) -> Dict[str, list]:
    """Per-key histories on the benchmark's one clock (warm-up ops included)."""
    by_key: Dict[str, list] = defaultdict(list)
    for key, who, value, invoked, completed, completion in raw.ops:
        by_key[key].append(adapter.record(who, key, value, invoked, completed, completion))
    return by_key


# --------------------------------------------------------------------------- #
# the simulator workload
# --------------------------------------------------------------------------- #


def measure_sim_setup() -> List[float]:
    """Build the simulated store several times; the seconds each took."""
    timings: List[float] = []
    begun = time.perf_counter()
    while _more_setups(timings, begun):
        started = time.perf_counter()
        adapter.build_sim_store(keys_of(SIM_KEYS))
        timings.append(time.perf_counter() - started)
    return timings


def run_sim(workload: Workload, seed: int, seconds: float) -> Tuple[RawRun, RawRun, list]:
    """The fixed-work simulator run: ``(simulated, blocking, every handle)``.

    The simulated workload runs in ``SIM_SEGMENTS`` calls into the simulator;
    the clocks are read between them, so its operations carry the tick after
    their segment as their wall-clock stamp and a slice is a whole number of
    segments (throughput, CPU and ``fast_rate`` come from them; their latency
    is virtual).  Afterwards ``SIM_CALLS`` blocking writes,
    each followed by a blocking read of the same key, are timed one by one:
    the latency a caller of the simulator's blocking API sees on the faulty
    cluster.
    """
    scale = seconds / DEFAULT_SECONDS
    num_operations = max(SIM_SEGMENTS, round(SIM_OPS * scale))
    calls = max(SIM_CALL_BATCH, round(SIM_CALLS * scale))
    keys = keys_of(SIM_KEYS)
    simulated = RawRun(workload, seed, seconds)
    store = adapter.build_sim_store(keys)
    segments = adapter.sim_segments(store, num_operations, seed, SIM_SEGMENTS)
    gc.collect()
    handles: list = []

    def tick(raw: RawRun) -> float:
        now = time.perf_counter()
        raw.samples.append((now, time.process_time(), reference_kernel()))
        return now

    tick(simulated)
    for segment in segments:
        done = adapter.run_sim_segment(store, segment)
        now = tick(simulated)
        handles.extend(done)
        simulated.ops.extend(
            (h.register_id, h.client_id, h.requested_value, now, now, h.result) for h in done
        )
    _close_window(simulated)
    simulated.attempted = num_operations
    simulated.counters.update(adapter.sim_counters(store))

    blocking = RawRun(workload, seed, seconds)
    rng = random.Random(seed)
    readers = store.config.reader_ids()
    tick(blocking)
    for index in range(calls):
        # Write a key, then read it back: on this cluster the write takes the
        # fast path and the read (fr = 0 with a crashed server) the slow one.
        key = keys[rng.randrange(len(keys))]
        reader = readers[index % len(readers)]
        for call in (lambda: store.write(key, f"{key}:b{index}"), lambda: store.read(key, reader)):
            invoked = time.perf_counter()
            handle = call()
            completed = time.perf_counter()
            blocking.ops.append(
                (key, handle.client_id, handle.requested_value, invoked, completed, handle.result)
            )
            handles.append(handle)
        if index % SIM_CALL_BATCH == SIM_CALL_BATCH - 1:
            tick(blocking)
    tick(blocking)
    _close_window(blocking)
    blocking.attempted = 2 * calls
    return simulated, blocking, handles


def _close_window(raw: RawRun) -> None:
    """The measured window is everything between the first and last tick."""
    raw.window = (raw.samples[0][0], raw.samples[-1][0])
    raw.process_cpu_s = raw.samples[-1][1] - raw.samples[0][1]
    raw.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
