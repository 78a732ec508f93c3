"""The asyncio cluster: a whole deployment running on one event loop.

:class:`AsyncCluster` mirrors :class:`repro.sim.cluster.SimCluster` but with
real concurrency, real timers and (optionally) real TCP sockets.  Virtual time
units become wall-clock seconds through ``time_scale``; the default of one
millisecond per unit gives LAN-like latencies when combined with the default
one-unit message delay.

Usage::

    async with AsyncCluster(LuckyAtomicProtocol(config)) as cluster:
        write = await cluster.write("v1")
        read = await cluster.read("r1")

or synchronously via :meth:`AsyncCluster.run_scenario`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Dict, Iterable, Optional

__all__ = [
    "AsyncCluster",
    "ShardedAsyncCluster",
    "tcp_cluster",
    "sharded_tcp_cluster",
]

from ..core.automaton import OperationComplete
from ..core.host import OperationHandle, ProcessHost
from ..core.protocol import ProtocolSuite
from ..store.sharding import ShardedProtocol, StrategyFactory
from ..store.surface import StoreSurface
from ..verify.history import History
from ..wire import Codec
from .node import AutomatonNode, ClientNode
from .transport import InMemoryTransport, TcpTransport, Transport, constant_delay


class AsyncCluster:
    """Runs every process of a protocol suite as asyncio tasks."""

    def __init__(
        self,
        suite: ProtocolSuite,
        transport: Optional[Transport] = None,
        message_delay_s: float = 0.001,
        time_scale: float = 0.001,
        crashed_servers: Iterable[str] = (),
        timer_delay: Optional[float] = None,
        durable: bool = False,
        wal_dir: Optional[str] = None,
        compact_every: int = 512,
        codec: Optional[Codec] = None,
    ) -> None:
        self.suite = suite
        self.config = suite.config
        self.time_scale = time_scale
        #: *codec* reaches the default transport only: an explicitly passed
        #: *transport* keeps its own, and the durable files are always binary.
        self.transport = transport or InMemoryTransport(
            constant_delay(message_delay_s), codec=codec
        )
        self._crashed = set(crashed_servers)
        #: Durability: server nodes write-ahead log their state under
        #: ``wal_dir`` (one WAL + snapshot + incarnation sidecar per server)
        #: and recover from those files on restart — within one cluster via
        #: :meth:`restart_server`, or across cluster lifetimes by building a
        #: new cluster over the same ``wal_dir``.
        if durable and wal_dir is None:
            raise ValueError("a durable cluster needs a wal_dir for its WAL files")
        self.durable = durable
        self.wal_dir = wal_dir
        self.compact_every = compact_every
        if timer_delay is None:
            # Cover one round-trip of injected delay (expressed in the client's
            # abstract time units, which nodes scale by ``time_scale``), plus a
            # margin for scheduling jitter.  This mirrors what the paper's
            # synchronous-period assumption provides: a known bound tc,s*.
            timer_delay = 2.0 * (message_delay_s / time_scale) + 2.0
        self.timer_delay = timer_delay

        self.server_nodes: Dict[str, AutomatonNode] = {}
        self.client_nodes: Dict[str, AutomatonNode] = {}
        self._started = False
        #: The one clock origin of every client node's records: the nodes are
        #: built one after another, and an origin per node would skew
        #: :meth:`history` by the time between them.
        self.start_time = time.monotonic()
        self._build_nodes()

    def _build_nodes(self) -> None:
        for server_id in self.config.server_ids():
            self.server_nodes[server_id] = self._build_server_node(
                server_id, crashed=server_id in self._crashed
            )
        for client_id in self.config.client_ids():
            if client_id == self.config.writer_id:
                client = self.suite.create_writer()
            else:
                client = self.suite.create_reader(client_id)
            client.timer_delay = self.timer_delay
            self.client_nodes[client_id] = ClientNode(
                client,
                self.transport,
                time_scale=self.time_scale,
                start_time=self.start_time,
            )

    # ----------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._started:
            return
        await self.transport.start()
        for node in list(self.server_nodes.values()) + list(self.client_nodes.values()):
            await node.start()
        # Every client <-> server link is connected here, not by its first
        # frame (why: TcpTransport.connect).
        for client_id in self.client_nodes:
            for server_id in self.server_nodes:
                await self.transport.connect(client_id, server_id)
                await self.transport.connect(server_id, client_id)
        self._started = True

    async def stop(self) -> None:
        for node in list(self.server_nodes.values()) + list(self.client_nodes.values()):
            await node.stop()
        await self.transport.close()
        self._started = False

    async def __aenter__(self) -> "AsyncCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _build_server_node(self, server_id: str, crashed: bool = False) -> AutomatonNode:
        return AutomatonNode(
            self.suite.create_server(server_id),
            self.transport,
            time_scale=self.time_scale,
            crashed=crashed,
            durable=self.durable,
            wal_dir=self.wal_dir,
            compact_every=self.compact_every,
        )

    # ----------------------------------------------------------------- failures
    def crash_server(self, server_id: str) -> None:
        """Crash a server at runtime (it stops reacting to messages)."""
        self.server_nodes[server_id].crash()

    async def restart_server(self, server_id: str) -> AutomatonNode:
        """Replace *server_id* with a fresh node recovered from its WAL files.

        Requires a durable cluster: the replacement node replays the crashed
        incarnation's snapshot + WAL suffix and rejoins under a bumped
        incarnation.  Both transports re-register the process id in place
        (delivery dispatches through the handler table); recovery also works
        across cluster lifetimes — build a new cluster over the same
        ``wal_dir``.
        """
        if not self.durable:
            raise ValueError("restart_server requires a durable cluster (durable=True)")
        await self.server_nodes[server_id].stop()
        node = self._build_server_node(server_id)
        self.server_nodes[server_id] = node
        if self._started:
            await node.start()
        return node

    # ---------------------------------------------------------------- operations
    async def write(self, value: Any) -> OperationComplete:
        return await self.client_nodes[self.config.writer_id].invoke("write", None, value)

    async def read(self, reader_id: Optional[str] = None) -> OperationComplete:
        reader_id = reader_id or self.config.reader_ids()[0]
        return await self.client_nodes[reader_id].invoke("read", None)

    # ------------------------------------------------------------------ history
    def _operations(self) -> Iterable[OperationHandle]:
        return (op for node in self.client_nodes.values() for op in node.operations)

    def history(self) -> History:
        """Every operation invoked so far; one still open has no completion."""
        return History([operation.to_record() for operation in self._operations()])

    # ------------------------------------------------------------- sync helpers
    @classmethod
    def run_scenario(
        cls,
        suite: ProtocolSuite,
        scenario: Callable[["AsyncCluster"], Awaitable[Any]],
        **kwargs: Any,
    ) -> Any:
        """Run an async *scenario* against a fresh cluster and return its result.

        Convenience for tests, examples and benchmark callables that
        prefer a synchronous entry point.
        """

        async def _main() -> Any:
            async with cls(suite, **kwargs) as cluster:
                return await scenario(cluster)

        return asyncio.run(_main())


def tcp_cluster(suite: ProtocolSuite, **kwargs: Any) -> AsyncCluster:
    """Build an :class:`AsyncCluster` communicating over localhost TCP sockets."""
    return AsyncCluster(suite, transport=TcpTransport(), **kwargs)


class ShardedAsyncCluster(StoreSurface, AsyncCluster):
    """An asyncio deployment of the sharded multi-register store.

    All shards share one server fleet and one transport (in-memory or TCP);
    each client node multiplexes one outstanding operation per key.  With
    ``batching`` (the default) every message a node emits towards the same
    destination within one event-loop tick rides a single ``Batch`` frame::

        base = LuckyAtomicProtocol(config)
        async with ShardedAsyncCluster(base, keys=["k1", "k2"]) as store:
            await asyncio.gather(                 # concurrent across keys
                store.write("k1", "a"),
                store.write("k2", "b"),
            )
            read = await store.read("k1")

    The keyspace, dynamic keys, histories and verdicts are the shared
    :class:`~repro.store.surface.StoreSurface`; this class adds the awaitable
    verbs.  ``mwmr`` keys accept writes from every client node, ``leases``
    keys serve zero-round leased reads, and ``writer_leases`` keys (a subset
    of ``mwmr``) give the writing client a per-key writer lease — one-round
    writes plus :meth:`compare_and_swap` / :meth:`read_modify_write` decided
    locally from the leased timestamp cache while the lease holds.

    A subclass may skip this constructor and hand a ready-made
    :class:`~repro.store.sharding.ShardedProtocol` (or a subclass of it) to
    ``AsyncCluster.__init__`` directly.
    """

    def __init__(
        self,
        base: ProtocolSuite,
        keys: Iterable[str],
        byzantine: Optional[Dict[str, StrategyFactory]] = None,
        batching: bool = True,
        mwmr: Any = (),
        leases: Any = (),
        writer_leases: Any = (),
        lease_duration: float = 60.0,
        max_resident: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        suite = ShardedProtocol(
            base,
            list(keys),
            byzantine=byzantine,
            batching=batching,
            mwmr=mwmr,
            leases=leases,
            writer_leases=writer_leases,
            lease_duration=lease_duration,
            max_resident=max_resident,
        )
        super().__init__(suite, **kwargs)

    # ------------- the surface hooks (with AsyncCluster._operations)
    def _hosts(self) -> Iterable[ProcessHost]:
        nodes = (*self.server_nodes.values(), *self.client_nodes.values())
        return [node.host for node in nodes]

    def _archive_operations(self, key: str, archived: str) -> None:
        for node in self.client_nodes.values():
            node.archive_register(key, archived)

    # ---------------------------------------------------------------- operations
    async def write(  # type: ignore[override]
        self, key: str, value: Any, client_id: Optional[str] = None
    ) -> OperationComplete:
        """WRITE *value* to *key*; ``client_id`` picks the writing client.

        Any client node may write a key the suite declared ``mwmr``; SWMR keys
        accept writes only from the configured writer (the default).
        """
        node = self.client_nodes[client_id or self.config.writer_id]
        return await node.invoke("write", key, value)

    async def read(  # type: ignore[override]
        self, key: str, reader_id: Optional[str] = None
    ) -> OperationComplete:
        reader_id = reader_id or self.config.reader_ids()[0]
        return await self.client_nodes[reader_id].invoke("read", key)

    async def compare_and_swap(
        self, key: str, expected: Any, new: Any, client_id: Optional[str] = None
    ) -> OperationComplete:
        """CAS on *key*: write *new* iff the register currently holds *expected*.

        *key* must be a multi-writer register.  A successful swap completes as
        a write, a failed one as a read of the observed value; inspect the
        completion's ``kind`` (or its ``cas_failed`` metadata) to tell them
        apart.
        """
        node = self.client_nodes[client_id or self.config.writer_id]
        return await node.invoke("cas", key, expected, new)

    async def read_modify_write(
        self,
        key: str,
        fn: Callable[[Any], Any],
        client_id: Optional[str] = None,
    ) -> OperationComplete:
        """Atomically replace *key*'s value with ``fn(current)``.

        ``fn`` receives ``None`` while the register still holds its initial
        bottom value.  *key* must be a multi-writer register.
        """
        node = self.client_nodes[client_id or self.config.writer_id]
        return await node.invoke("rmw", key, fn)


def sharded_tcp_cluster(
    base: ProtocolSuite, keys: Iterable[str], **kwargs: Any
) -> ShardedAsyncCluster:
    """Build a :class:`ShardedAsyncCluster` over localhost TCP sockets."""
    return ShardedAsyncCluster(base, keys, transport=TcpTransport(), **kwargs)
