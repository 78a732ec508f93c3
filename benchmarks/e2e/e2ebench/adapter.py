"""The one module of the benchmark that imports ``repro``.

Everything the benchmark holds of the program's surface is here, so a change
to that surface knows what it has to keep working:

* names exported from ``repro/__init__.py``, plus ``OperationRecord``
  (``repro.verify``), ``Codec``/``get_codec`` (``repro.wire``), the transports
  (``repro.runtime``), ``iter_unbatched`` (``repro.core.messages``),
  ``ForgeHighTimestampStrategy`` (``repro.sim.byzantine``),
  ``Workload``/``keyspace_workload``/``run_store_workload``
  (``repro.workload.generator``)
  and, for replay only, ``DurableServer``/``WriteAheadLog``/``MemoryWAL``
  (``repro.persist``);
* the documented keyword arguments ``keys``, ``mwmr``, ``leases``,
  ``writer_leases``, ``durable``, ``wal_dir``, ``message_delay_s``, ``codec``,
  ``transport``, ``byzantine``, ``failures``, ``delay_model``;
* three extension points: a ``Codec`` subclass, a ``Transport`` subclass and a
  ``ShardedProtocol`` subclass.

No monkeypatching and no private attributes.  Where a layer boundary cannot be
reached through a constructor argument (WAL, lease wrappers, the bare register
automaton) the layer is measured by replaying the captured server inputs
through its public classes.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_SRC = Path(__file__).resolve().parents[3] / "src"
sys.path.insert(0, str(_SRC))

import repro
from repro import (
    AsyncCluster,
    FailureSchedule,
    FixedDelay,
    History,
    LuckyAtomicProtocol,
    ShardedAsyncCluster,
    ShardedProtocol,
    ShardedSimStore,
    SystemConfig,
    check_atomicity,
    sharded_tcp_cluster,
)
from repro.core.messages import iter_unbatched
from repro.persist import DurableServer, MemoryWAL, WriteAheadLog
from repro.runtime import InMemoryTransport, TcpTransport, Transport
from repro.sim.byzantine import ForgeHighTimestampStrategy
from repro.verify import OperationRecord
from repro.wire import Codec, get_codec
from repro.workload.generator import Workload, keyspace_workload, run_store_workload

from .tracing import Tracer, spanned_steps

if _SRC not in Path(repro.__file__).resolve().parents:
    raise ImportError(
        f"the benchmark measures the source tree at {_SRC}, but 'repro' was "
        f"imported from {repro.__file__}"
    )


# --------------------------------------------------------------------------- #
# Building the systems under test
# --------------------------------------------------------------------------- #


def system_config(t: int, b: int, fw: int, fr: int, num_readers: int) -> SystemConfig:
    return SystemConfig(t=t, b=b, fw=fw, fr=fr, num_readers=num_readers)


def build_async_store(
    config: SystemConfig,
    keys: Sequence[str],
    tcp: bool,
    leased: bool = False,
    wal_dir: Optional[str] = None,
    trace: Optional["RunTrace"] = None,
) -> ShardedAsyncCluster:
    """The asyncio store of one workload: zero injected delay, default timers.

    With *trace* the same store is built around the span objects: the codec
    and transport go in through ``codec=`` / ``transport=`` and the automata
    come from a :class:`ShardedProtocol` subclass.
    """
    base = LuckyAtomicProtocol(config)
    capabilities: Dict[str, Any] = (
        {"mwmr": True, "leases": True, "writer_leases": True} if leased else {}
    )
    runtime: Dict[str, Any] = {"message_delay_s": 0.0}
    if wal_dir is not None:
        runtime.update(durable=True, wal_dir=wal_dir)
    if trace is None:
        build = sharded_tcp_cluster if tcp else ShardedAsyncCluster
        return build(base, keys, **capabilities, **runtime)
    codec = SpanCodec(trace.tracer)
    inner = TcpTransport(codec=codec) if tcp else InMemoryTransport(codec=codec)
    suite = SpanProtocol(trace, base, list(keys), **capabilities)
    return SuiteCluster(
        suite, transport=SpanTransport(inner, trace), codec=codec, **runtime
    )


class SuiteCluster(ShardedAsyncCluster):
    """A sharded cluster over a ready-made suite (``ShardedAsyncCluster``
    builds its own ``ShardedProtocol``, which leaves no room for a subclass)."""

    def __init__(self, suite: ShardedProtocol, **kwargs: Any) -> None:
        AsyncCluster.__init__(self, suite, **kwargs)


# --------------------------------------------------------------------------- #
# Verification: one clock, one history per key
# --------------------------------------------------------------------------- #


def record(
    client_id: str, key: str, value: Any, invoked_at: float, completed_at: float,
    completion: Any,
) -> OperationRecord:
    """A history record stamped by the benchmark's own clock.

    *value* is what a write wrote; a read's value is taken from *completion*.
    """
    return OperationRecord(
        client_id=client_id,
        kind=completion.kind,
        value=completion.value if completion.kind == "read" else value,
        invoked_at=invoked_at,
        completed_at=completed_at,
        rounds=completion.rounds,
        fast=completion.fast,
        metadata={**completion.metadata, "register_id": key},
    )


def check_histories(
    records_by_key: Dict[str, List[OperationRecord]], mwmr: bool
) -> Tuple[Dict[str, str], float]:
    """Check every key's history; returns ``({key: first violation}, seconds)``."""
    started = time.perf_counter()
    failures: Dict[str, str] = {}
    for key, records in records_by_key.items():
        result = check_atomicity(History(records), mwmr=mwmr)
        if not result.ok:
            shown = "\n    ".join(repr(r) for r in records[:6])
            failures[key] = f"{result.violations[0]}\n    {shown}"
    return failures, time.perf_counter() - started


# --------------------------------------------------------------------------- #
# The simulator workload
# --------------------------------------------------------------------------- #

def build_sim_store(keys: Sequence[str]) -> ShardedSimStore:
    """t=2 b=1 (S=6): ``s1`` forges high timestamps, ``s6`` is crashed."""
    return ShardedSimStore(
        LuckyAtomicProtocol(SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=3)),
        list(keys),
        byzantine={"s1": ForgeHighTimestampStrategy},
        delay_model=FixedDelay(1.0),
        failures=FailureSchedule.crash_at_start(["s6"]),
    )


def sim_segments(
    store: ShardedSimStore, num_operations: int, seed: int, segments: int
) -> List[Workload]:
    """The seeded Zipf workload, cut into consecutive *segments* so the
    benchmark can read its clocks between them."""
    workload = keyspace_workload(
        num_operations,
        store.keys,
        store.config.reader_ids(),
        write_fraction=0.4,
        skew=0.6,
        mean_gap=0.25,
        seed=seed,
    )
    operations = workload.sorted()
    size = -(-len(operations) // segments)
    return [
        Workload(operations[start : start + size], workload.description)
        for start in range(0, len(operations), size)
    ]


def run_sim_segment(store: ShardedSimStore, segment: Workload) -> List[Any]:
    """Run one segment to completion; returns its operation handles."""
    return run_store_workload(store, segment)


def sim_counters(store: ShardedSimStore) -> Dict[str, int]:
    return {
        "events": store.cluster.events_processed,
        "messages": store.messages_sent,
        "bytes": store.bytes_sent,
    }


def sim_records(handles: Iterable[Any]) -> Dict[str, List[OperationRecord]]:
    """Per-key histories on the simulator's one virtual clock."""
    by_key: Dict[str, List[OperationRecord]] = defaultdict(list)
    for handle in handles:
        by_key[handle.register_id].append(handle.to_record())
    return by_key


# --------------------------------------------------------------------------- #
# In-situ spans: codec, transport and automaton boundaries
# --------------------------------------------------------------------------- #


class RunTrace:
    """What one traced run collects besides the spans themselves."""

    def __init__(self, config: SystemConfig) -> None:
        self.tracer = Tracer()
        self.config = config
        #: Frames delivered to a process and not yet stepped: (arrival, messages).
        self.arrivals: Dict[str, deque] = defaultdict(deque)
        self._frame_left: Dict[str, int] = defaultdict(int)
        self.flight_ns: List[int] = []
        self.mailbox_wait_ns: List[int] = []
        self.frames = 0
        self.messages = 0
        self.timers_armed = 0
        #: Per server, in order: ("m", message, starts_frame) or ("t", timer_id).
        self.server_inputs: Dict[str, list] = defaultdict(list)
        self._op_seq: Dict[Tuple[str, str], int] = defaultdict(int)
        self._op_open: Dict[Tuple[str, str], list] = {}
        self.quorum_wait_ns: List[int] = []
        self.timer_wait_ns: List[int] = []

    @property
    def recording(self) -> bool:
        return self.tracer.recording

    def op_id(self, client_id: str, key: str) -> str:
        """``client/key/seq`` of the one operation in flight on (client, key)."""
        return f"{client_id}/{key}/{self._op_seq[(client_id, key)]}"

    # ----------------------------------------------------------- frame hops
    def frame_arrived(self, process_id: str, message: Any) -> None:
        self.arrivals[process_id].append(
            (time.perf_counter_ns(), len(iter_unbatched(message)))
        )

    def step_started(self, process_id: str) -> bool:
        """Called before each message step; true when it opens a new frame."""
        if self._frame_left[process_id] > 0:
            self._frame_left[process_id] -= 1
            return False
        arrivals = self.arrivals[process_id]
        if arrivals:
            arrived, count = arrivals.popleft()
            self._frame_left[process_id] = count - 1
            if self.recording:
                self.mailbox_wait_ns.append(time.perf_counter_ns() - arrived)
        return True

    # ----------------------------------------------------- client operations
    def op_invoked(self, client_id: str, key: str) -> None:
        self._op_seq[(client_id, key)] += 1
        self._op_open[(client_id, key)] = [time.perf_counter_ns()]

    def op_ack(self, client_id: str, key: str) -> None:
        stamps = self._op_open.get((client_id, key))
        if stamps is not None:
            stamps.append(time.perf_counter_ns())

    def op_completed(self, client_id: str, completion: Any) -> None:
        key = completion.metadata.get("register_id")
        stamps = self._op_open.pop((client_id, key), None)
        if stamps is None or not self.recording or completion.rounds != 1:
            return
        servers = self.config.num_servers
        quorum = servers - (self.config.fw if completion.kind == "write" else self.config.fr)
        if len(stamps) > quorum:
            self.quorum_wait_ns.append(stamps[quorum] - stamps[0])
            self.timer_wait_ns.append(time.perf_counter_ns() - stamps[quorum])


class SpanCodec(Codec):
    """Times every call into the wire codec; the bytes are the inner codec's."""

    name = "span"

    def __init__(self, tracer: Tracer, inner: Any = None) -> None:
        self._tracer = tracer
        self._inner = get_codec(inner)

    def _spanned(self, name: str, call: Callable[..., Any], *args: Any) -> Any:
        span = self._tracer.enter(name)
        try:
            return call(*args)
        finally:
            self._tracer.exit(span)

    def encode_message(self, message: Any) -> bytes:
        return self._spanned("wire.value", self._inner.encode_message, message)

    def decode_message(self, data: bytes) -> Any:
        return self._spanned("wire.value", self._inner.decode_message, data)

    def encode_envelope(self, source: str, destination: str, message: Any) -> bytes:
        return self._spanned(
            "wire.encode", self._inner.encode_envelope, source, destination, message
        )

    def encode_envelope_into(
        self, out: bytearray, source: str, destination: str, message: Any
    ) -> None:
        self._spanned(
            "wire.encode", self._inner.encode_envelope_into, out, source, destination, message
        )

    def frame_size(self, source: str, destination: str, message: Any) -> int:
        return self._spanned(
            "wire.encode", self._inner.frame_size, source, destination, message
        )

    def decode_envelope(self, data: bytes) -> Tuple[str, str, Any]:
        return self._spanned("wire.decode", self._inner.decode_envelope, data)

    def encode_value(self, value: Any) -> bytes:
        return self._spanned("wire.value", self._inner.encode_value, value)

    def decode_value(self, data: bytes) -> Any:
        return self._spanned("wire.value", self._inner.decode_value, data)


class SpanTransport(Transport):
    """Times ``send`` (while it runs, not while it is suspended on a lock, a
    connect or a drain) and stamps every frame at send and at handler entry.

    Frames between one (source, destination) pair arrive in the order they
    were sent on both transports, so a FIFO of send stamps per pair matches
    each arrival to its send without touching the frame.
    """

    def __init__(self, inner: Transport, trace: RunTrace) -> None:
        self.inner = inner
        self._trace = trace
        self._sent: Dict[Tuple[str, str], deque] = defaultdict(deque)

    @property
    def frames_sent(self) -> int:  # type: ignore[override]
        return self.inner.frames_sent

    @property
    def bytes_sent(self) -> int:  # type: ignore[override]
        return self.inner.bytes_sent

    def register(self, process_id: str, handler: Callable[[str, Any], Any]) -> None:
        trace = self._trace
        sent = self._sent

        async def stamped(source: str, message: Any) -> None:
            stamps = sent[(source, process_id)]
            if stamps:
                flight = time.perf_counter_ns() - stamps.popleft()
                if trace.recording:
                    trace.flight_ns.append(flight)
            trace.frame_arrived(process_id, message)
            await handler(source, message)

        self.inner.register(process_id, stamped)

    async def send(self, source: str, destination: str, message: Any) -> None:
        trace = self._trace
        self._sent[(source, destination)].append(time.perf_counter_ns())
        if trace.recording:
            trace.frames += 1
            trace.messages += len(iter_unbatched(message))
        await spanned_steps(
            trace.tracer, "transport.send", self.inner.send(source, destination, message)
        )

    async def start(self) -> None:
        await self.inner.start()

    async def close(self) -> None:
        await self.inner.close()


class _AutomatonProxy:
    """Forwards everything to ``inner`` (the runtime reads ``batching`` and
    sets ``timer_delay`` on it); subclasses time the automaton's inputs."""

    def __init__(self, inner: Any, trace: RunTrace) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_trace", trace)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self.inner, name, value)

    def _step(self, span_name: str, op: Optional[str], call: Callable[..., Any], *args: Any) -> Any:
        trace = self._trace
        span = trace.tracer.enter(span_name, op)
        try:
            effects = call(*args)
        finally:
            trace.tracer.exit(span)
        if trace.recording:
            trace.timers_armed += len(effects.timers)
        return effects


class ServerProxy(_AutomatonProxy):
    """Spans around a ``ShardedServer``'s steps; also captures its inputs."""

    def handle_message(self, message: Any) -> Any:
        trace = self._trace
        server_id = self.inner.process_id
        starts_frame = trace.step_started(server_id)
        if trace.recording:
            trace.server_inputs[server_id].append(("m", message, starts_frame))
        op = trace.op_id(message.sender, message.register_id)
        return self._step("store.server_step", op, self.inner.handle_message, message)

    def on_timer(self, timer_id: str) -> Any:
        if self._trace.recording:
            self._trace.server_inputs[self.inner.process_id].append(("t", timer_id))
        return self._step("store.server_step", None, self.inner.on_timer, timer_id)


class ClientProxy(_AutomatonProxy):
    """Spans around a ``ShardedClient``'s invocations and steps."""

    def _invoke(self, call: Callable[..., Any], key: str, *args: Any) -> Any:
        trace = self._trace
        client_id = self.inner.process_id
        trace.op_invoked(client_id, key)
        op = trace.op_id(client_id, key)
        return self._finish(self._step("store.client_invoke", op, call, key, *args))

    def _finish(self, effects: Any) -> Any:
        for completion in effects.completions:
            self._trace.op_completed(self.inner.process_id, completion)
        return effects

    def write(self, key: str, value: Any) -> Any:
        return self._invoke(self.inner.write, key, value)

    def read(self, key: str) -> Any:
        return self._invoke(self.inner.read, key)

    def handle_message(self, message: Any) -> Any:
        trace = self._trace
        client_id = self.inner.process_id
        trace.step_started(client_id)
        trace.op_ack(client_id, message.register_id)
        op = trace.op_id(client_id, message.register_id)
        return self._finish(
            self._step("store.client_step", op, self.inner.handle_message, message)
        )

    def on_timer(self, timer_id: str) -> Any:
        return self._finish(
            self._step("store.client_step", None, self.inner.on_timer, timer_id)
        )


class SpanProtocol(ShardedProtocol):
    """A sharded suite whose automata are wrapped in timing proxies."""

    def __init__(self, trace: RunTrace, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._trace = trace

    def create_server(self, server_id: str) -> Any:
        return ServerProxy(super().create_server(server_id), self._trace)

    def create_writer(self) -> Any:
        return ClientProxy(super().create_writer(), self._trace)

    def create_reader(self, reader_id: str) -> Any:
        return ClientProxy(super().create_reader(reader_id), self._trace)


# --------------------------------------------------------------------------- #
# Replay: the captured server inputs through one layer at a time
# --------------------------------------------------------------------------- #


class _BareRegisters:
    """Fresh ``StorageServer``s, one per register, with no router above."""

    def __init__(self, base: LuckyAtomicProtocol, server_id: str) -> None:
        self._base = base
        self._server_id = server_id
        self._registers: Dict[str, Any] = {}

    def handle_message(self, message: Any) -> Any:
        register = self._registers.get(message.register_id)
        if register is None:
            register = self._base.create_server(self._server_id)
            self._registers[message.register_id] = register
        return register.handle_message(message)

    def on_timer(self, timer_id: str) -> None:
        return None


class TimedWal:
    """A ``WalLike`` that times and counts the appends of the log it wraps."""

    def __init__(self, wal: Any) -> None:
        self._wal = wal
        self.append_s: List[float] = []
        self.records = 0

    def append(self, records: Sequence[Any]) -> None:
        started = time.perf_counter()
        self._wal.append(records)
        self.append_s.append(time.perf_counter() - started)
        self.records += len(records)

    def replay(self, truncate: bool = True) -> List[Any]:
        return self._wal.replay(truncate)

    def reset(self) -> None:
        self._wal.reset()

    def close(self) -> None:
        self._wal.close()

    @property
    def record_count(self) -> int:
        return self._wal.record_count


def _replay(inputs: Dict[str, list], make_server: Callable[[str], Any]) -> float:
    """Feed every server its captured inputs; returns the seconds stepping took.

    Multi-message frames of a durable server go through ``append_batch`` as
    the asyncio node does, so the batch boundaries (= fsyncs) are the run's.
    """
    total = 0.0
    for server_id, stream in inputs.items():
        server = make_server(server_id)
        batch = getattr(server, "append_batch", None)
        position = 0
        while position < len(stream):
            entry = stream[position]
            if entry[0] == "t":
                started = time.perf_counter()
                server.on_timer(entry[1])
                total += time.perf_counter() - started
                position += 1
                continue
            end = position + 1
            while end < len(stream) and stream[end][0] == "m" and not stream[end][2]:
                end += 1
            messages = [item[1] for item in stream[position:end]]
            started = time.perf_counter()
            if batch is not None and len(messages) > 1:
                with batch():
                    for message in messages:
                        server.handle_message(message)
            else:
                for message in messages:
                    server.handle_message(message)
            total += time.perf_counter() - started
            position = end
    return total


def replay_layers(
    config: SystemConfig,
    keys: Sequence[str],
    inputs: Dict[str, list],
    leased: bool,
    wal_dir: Optional[str],
) -> Dict[str, float]:
    """Stack the server-side layers one at a time over the captured inputs.

    Returns seconds per stack (``core_s``, ``store_s``, ``lease_s`` and, with
    *wal_dir*, ``durable_mem_s``) plus the append statistics of a real log
    with fsync off and on.  Each in-memory stack is replayed three times and
    the fastest kept: the inputs are fixed, so only interference differs.
    """
    base = LuckyAtomicProtocol(config)
    key_list = list(keys)
    plain = ShardedProtocol(base, key_list)
    stacked = (
        ShardedProtocol(base, key_list, mwmr=True, leases=True, writer_leases=True)
        if leased
        else plain
    )

    def fastest(make_server: Callable[[str], Any]) -> float:
        return min(_replay(inputs, make_server) for _ in range(3))

    out: Dict[str, float] = {
        "messages": float(
            sum(1 for stream in inputs.values() for entry in stream if entry[0] == "m")
        ),
        "core_s": fastest(lambda sid: _BareRegisters(base, sid)),
        "store_s": fastest(plain.create_server),
    }
    out["lease_s"] = fastest(stacked.create_server) if leased else out["store_s"]
    if wal_dir is None:
        return out
    out["durable_mem_s"] = fastest(
        lambda sid: DurableServer(stacked.create_server(sid), MemoryWAL())
    )
    for label, fsync in (("off", False), ("on", True)):
        logs = _replay_on_files(inputs, stacked, wal_dir, label, fsync)
        out[f"append_{label}_s"] = sum(sum(log.append_s) for log in logs.values())
        out["appends"] = float(sum(len(log.append_s) for log in logs.values()))
        out["records"] = float(sum(log.records for log in logs.values()))
        out["wal_bytes"] = float(sum(os.path.getsize(path) for path in logs))
    return out


def _replay_on_files(
    inputs: Dict[str, list], suite: ShardedProtocol, wal_dir: str, label: str, fsync: bool
) -> Dict[str, TimedWal]:
    """Replay through ``DurableServer`` over one real log per server; returns
    the closed logs by path."""
    logs: Dict[str, TimedWal] = {}

    def durable(server_id: str) -> DurableServer:
        path = os.path.join(wal_dir, f"replay-{label}-{server_id}.wal")
        logs[path] = TimedWal(WriteAheadLog(path, fsync=fsync))
        return DurableServer(suite.create_server(server_id), logs[path])

    _replay(inputs, durable)
    for log in logs.values():
        log.close()
    return logs
