"""The sharded store in virtual time.

:class:`ShardedSimStore` runs a :class:`~repro.store.sharding.ShardedProtocol`
deployment on the deterministic simulator and exposes a key-value interface::

    store = ShardedSimStore(LuckyAtomicProtocol(config), keys=["k1", "k2"])
    store.write("k1", "a")           # blocking convenience helper
    read = store.read("k1")
    assert read.value == "a"
    assert store.verify_atomic()     # every per-key history checks out

Concurrency across keys uses the ``start_*`` variants plus the cluster's run
loop, exactly like :class:`~repro.sim.cluster.SimCluster`; keyed workloads are
driven by :func:`repro.workload.generator.run_store_workload`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..core.host import OperationHandle, ProcessHost
from ..core.protocol import ProtocolSuite
from ..sim.cluster import SimCluster
from .sharding import ShardedProtocol, StrategyFactory
from .surface import StoreSurface, find_router


class ShardedSimStore(StoreSurface):
    """A sharded multi-register store on the discrete-event simulator.

    The keyspace, dynamic keys, histories and verdicts are the shared
    :class:`~repro.store.surface.StoreSurface`; this class adds the
    virtual-time verbs: ``start_*`` plus blocking conveniences over the
    cluster's run loop, failure injection and the wire counters.
    Conditional operations target multi-writer keys; a failed
    compare-and-swap completes as a read of the observed value:

    >>> from repro.core.config import SystemConfig
    >>> from repro.core.protocol import LuckyAtomicProtocol
    >>> store = ShardedSimStore(
    ...     LuckyAtomicProtocol(SystemConfig.balanced(t=1, b=0)),
    ...     keys=["k1", "k2"],
    ...     mwmr=["k2"],
    ...     writer_leases=["k2"],
    ... )
    >>> store.write("k1", "a").value
    'a'
    >>> store.read("k1").value
    'a'
    >>> store.compare_and_swap("k2", None, "b").result.kind
    'write'
    >>> store.compare_and_swap("k2", "stale", "c").result.kind
    'read'
    >>> store.read_modify_write("k2", lambda v: v + "!").value
    'b!'
    >>> store.verify_atomic()
    True
    """

    def __init__(
        self,
        base: ProtocolSuite,
        keys: Sequence[str],
        byzantine: Optional[Dict[str, StrategyFactory]] = None,
        batching: bool = True,
        mwmr: Any = (),
        leases: Any = (),
        writer_leases: Any = (),
        lease_duration: float = 60.0,
        max_resident: Optional[int] = None,
        **cluster_kwargs: Any,
    ) -> None:
        self.suite = ShardedProtocol(
            base,
            keys,
            byzantine=byzantine,
            batching=batching,
            mwmr=mwmr,
            leases=leases,
            writer_leases=writer_leases,
            lease_duration=lease_duration,
            max_resident=max_resident,
        )
        self.cluster = SimCluster(self.suite, **cluster_kwargs)

    # ------------------------------------------------------ the surface hooks
    def _hosts(self) -> Iterable[ProcessHost]:
        return self.cluster.hosts.values()

    def _operations(self) -> Iterable[OperationHandle]:
        return self.cluster.operations

    # ------------------------------------------------------------- inspection
    def _lease_counter(self, counter: str, client_ids: Sequence[str]) -> int:
        """Sum the per-register lease *counter* over the named clients."""
        clients = (self.cluster.processes[client_id] for client_id in client_ids)
        return sum(
            getattr(register, counter, 0)
            for client in clients
            for register in client.registers.values()  # type: ignore[attr-defined]
        )

    def lease_writes(self, client_id: Optional[str] = None) -> int:
        """Writes completed in one round under a writer lease, by the named
        client (default: all clients of the deployment)."""
        return self._lease_counter(
            "lease_writes", [client_id] if client_id else self.config.client_ids()
        )

    def lease_reads(self, reader_id: Optional[str] = None) -> int:
        """Reads served locally from a lease, by the named reader (default:
        all readers of the deployment)."""
        return self._lease_counter(
            "lease_reads", [reader_id] if reader_id else self.config.reader_ids()
        )

    @property
    def config(self):
        return self.suite.config

    @property
    def topology(self):
        """The cluster's network topology (zones, links, partitions, skew)."""
        return self.cluster.topology

    @property
    def now(self) -> float:
        return self.cluster.now

    def client_busy(self, client_id: str, key: str) -> bool:
        """Whether *client_id* has an outstanding operation on *key*."""
        return self.cluster.processes[client_id].busy_on(key)  # type: ignore[attr-defined]

    # ---------------------------------------------------------- dynamic keys
    @property
    def max_resident(self) -> Optional[int]:
        """The per-server resident-register bound (``None`` = unbounded)."""
        return self.suite.max_resident

    def resident_registers(self, process_id: str) -> List[str]:
        """The registers with live automata on *process_id*, LRU order."""
        router = find_router(self.cluster.processes[process_id])
        if router is None:
            return []
        return list(router.registers)

    def evicted_registers(self, server_id: str) -> List[str]:
        """The registers whose state currently lives in *server_id*'s spill."""
        store = self.suite.eviction_stores.get(server_id)
        return store.register_ids() if store is not None else []

    # ------------------------------------------------------------- operations
    def start_write(
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``WRITE(value)`` on *key* now.

        ``client_id`` defaults to the configured writer; any client of the
        deployment may write a key declared ``mwmr``.
        """
        return self.cluster.start(
            client_id or self.config.writer_id, "write", value, register_id=key
        )

    def start_read(self, key: str, reader_id: Optional[str] = None) -> OperationHandle:
        """Invoke ``READ()`` on *key* now (default reader: the first)."""
        return self.cluster.start(reader_id or self.config.reader_ids()[0], "read", register_id=key)

    def start_compare_and_swap(
        self, key: str, expected: Any, new: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``CAS(expected, new)`` on *key* now (see :meth:`compare_and_swap`)."""
        return self.cluster.start(
            client_id or self.config.writer_id, "cas", expected, new, register_id=key
        )

    def start_read_modify_write(
        self, key: str, fn: Callable[[Any], Any], client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``RMW(fn)`` on *key* now (see :meth:`read_modify_write`)."""
        return self.cluster.start(client_id or self.config.writer_id, "rmw", fn, register_id=key)

    def write(
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        return self.cluster.run_until_done(self.start_write(key, value, client_id))

    def read(self, key: str, reader_id: Optional[str] = None) -> OperationHandle:
        return self.cluster.run_until_done(self.start_read(key, reader_id))

    def compare_and_swap(
        self, key: str, expected: Any, new: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Write *new* iff the register currently holds *expected*.

        A successful swap completes as a write; a failed one completes as a
        read of the observed value (``handle.result.kind`` tells them apart).
        *key* must be a multi-writer register.
        """
        return self.cluster.run_until_done(
            self.start_compare_and_swap(key, expected, new, client_id)
        )

    def read_modify_write(
        self, key: str, fn: Callable[[Any], Any], client_id: Optional[str] = None
    ) -> OperationHandle:
        """Atomically replace the register's value with ``fn(current)``.

        ``fn`` receives ``None`` while the register still holds its initial
        bottom value.  *key* must be a multi-writer register.
        """
        return self.cluster.run_until_done(self.start_read_modify_write(key, fn, client_id))

    # --------------------------------------------------------------- failures
    def crash(self, server_id: str, at: Optional[float] = None) -> None:
        """Crash *server_id* at time *at* (default: now)."""
        self.cluster.crash(server_id, at)

    def recover_server(self, server_id: str, lose_tail: int = 0) -> None:
        """Recover *server_id* from its WAL now (requires ``durable=True``)."""
        self.cluster.recover_server(server_id, lose_tail=lose_tail)

    def incarnation(self, server_id: str) -> int:
        """The current incarnation (recovery count) of *server_id*."""
        return self.cluster.incarnation(server_id)

    @property
    def wal_records(self) -> int:
        """Records appended across every server WAL (0 for non-durable stores)."""
        return sum(wal.records_appended for wal in self.cluster.wals.values())

    # --------------------------------------------------------------- run loop
    def run(self, **kwargs: Any) -> None:
        self.cluster.run(**kwargs)

    def run_for(self, duration: float) -> None:
        self.cluster.run_for(duration)

    def run_until_quiescent(self) -> None:
        self.cluster.run_until_quiescent()

    # -------------------------------------------------------------- reporting
    @property
    def batching(self) -> bool:
        return self.suite.batching

    @property
    def frames_sent(self) -> int:
        """Transport frames put on the wire (batches count once)."""
        return self.cluster.frames_sent

    @property
    def messages_sent(self) -> int:
        """Protocol messages sent (batched or not)."""
        return self.cluster.messages_sent

    @property
    def bytes_sent(self) -> int:
        """Encoded wire bytes of every frame sent, under the cluster's codec."""
        return self.cluster.bytes_sent

    def completed_operations(self) -> List[OperationHandle]:
        return self.cluster.completed_operations()

    def throughput(self) -> float:
        """Completed operations per unit of virtual time (aggregate, all keys)."""
        completed = self.completed_operations()
        if not completed:
            return 0.0
        start = min(handle.invoked_at for handle in completed)
        end = max(handle.completed_at for handle in completed)  # type: ignore[type-var]
        span = end - start
        return len(completed) / span if span > 0 else float("inf")
