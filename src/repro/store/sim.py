"""The sharded store in virtual time.

:class:`ShardedSimStore` *is* a :class:`~repro.sim.cluster.SimCluster` whose
suite is a :class:`~repro.store.sharding.ShardedProtocol`, with the
key-value surface on top::

    store = ShardedSimStore(LuckyAtomicProtocol(config), keys=["k1", "k2"])
    store.write("k1", "a")           # blocking convenience helper
    read = store.read("k1")
    assert read.value == "a"
    assert store.verify_atomic()     # every per-key history checks out

Concurrency across keys uses the ``start_*`` variants plus the cluster's own
run loop; workloads, keyed or not, are driven by
:func:`repro.workload.generator.run_workload`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from ..core.host import OperationHandle, ProcessHost
from ..core.protocol import ProtocolSuite
from ..sim.cluster import SimCluster
from .sharding import ShardedProtocol, StrategyFactory
from .surface import StoreSurface


class ShardedSimStore(StoreSurface, SimCluster):
    """A sharded multi-register store on the discrete-event simulator.

    The keyspace, dynamic keys, histories and verdicts are the shared
    :class:`~repro.store.surface.StoreSurface`; the run loop, failure
    injection and wire counters are the :class:`SimCluster` it is.  This
    class adds the keyed verbs: ``start_*`` plus blocking conveniences.
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
        SimCluster.__init__(self, self.suite, **cluster_kwargs)

    @property
    def cluster(self) -> "ShardedSimStore":
        """The store itself: ``benchmarks/e2e`` reads
        ``store.cluster.events_processed``."""
        return self

    # ------------------------------------------------------ the surface hooks
    def _hosts(self) -> Iterable[ProcessHost]:
        return self.hosts.values()

    def _operations(self) -> Iterable[OperationHandle]:
        return self.operations

    # ------------------------------------------------------------- inspection
    def _lease_counter(self, counter: str, client_ids: Sequence[str]) -> int:
        """Sum the per-register lease *counter* over the named clients."""
        clients = (self.processes[client_id] for client_id in client_ids)
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
    def wal_records(self) -> int:
        """Records appended to every server WAL by every incarnation (0 for
        non-durable stores)."""
        live = [self.processes[server_id] for server_id in self.disks]
        return self.retired_wal_records + sum(
            server.wal.records_appended for server in live  # type: ignore[attr-defined]
        )

    # ------------------------------------------------------------- operations
    def start_write(  # type: ignore[override]
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``WRITE(value)`` on *key* now.

        ``client_id`` defaults to the configured writer; any client of the
        deployment may write a key declared ``mwmr``.
        """
        return self.start(client_id or self.config.writer_id, "write", value, register_id=key)

    def start_read(  # type: ignore[override]
        self, key: str, reader_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``READ()`` on *key* now (default reader: the first)."""
        return self.start(reader_id or self.config.reader_ids()[0], "read", register_id=key)

    def start_compare_and_swap(
        self, key: str, expected: Any, new: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``CAS(expected, new)`` on *key* now (see :meth:`compare_and_swap`)."""
        return self.start(
            client_id or self.config.writer_id, "cas", expected, new, register_id=key
        )

    def start_read_modify_write(
        self, key: str, fn: Callable[[Any], Any], client_id: Optional[str] = None
    ) -> OperationHandle:
        """Invoke ``RMW(fn)`` on *key* now (see :meth:`read_modify_write`)."""
        return self.start(client_id or self.config.writer_id, "rmw", fn, register_id=key)

    def write(  # type: ignore[override]
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        return self.run_until_done(self.start_write(key, value, client_id))

    def read(  # type: ignore[override]
        self, key: str, reader_id: Optional[str] = None
    ) -> OperationHandle:
        return self.run_until_done(self.start_read(key, reader_id))

    def compare_and_swap(
        self, key: str, expected: Any, new: Any, client_id: Optional[str] = None
    ) -> OperationHandle:
        """Write *new* iff the register currently holds *expected*.

        A successful swap completes as a write; a failed one completes as a
        read of the observed value (``handle.result.kind`` tells them apart).
        *key* must be a multi-writer register.
        """
        return self.run_until_done(self.start_compare_and_swap(key, expected, new, client_id))

    def read_modify_write(
        self, key: str, fn: Callable[[Any], Any], client_id: Optional[str] = None
    ) -> OperationHandle:
        """Atomically replace the register's value with ``fn(current)``.

        ``fn`` receives ``None`` while the register still holds its initial
        bottom value.  *key* must be a multi-writer register.
        """
        return self.run_until_done(self.start_read_modify_write(key, fn, client_id))
