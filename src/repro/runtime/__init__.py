"""Asyncio runtime: the same automata over real timers, queues and TCP sockets."""

from .cluster import (
    AsyncCluster,
    ShardedAsyncCluster,
    sharded_tcp_cluster,
    tcp_cluster,
)
from .node import AutomatonNode, ClientNode
from .transport import (
    DelayFunction,
    InMemoryTransport,
    TcpTransport,
    Transport,
    constant_delay,
    no_delay,
)

__all__ = [
    "AsyncCluster",
    "ShardedAsyncCluster",
    "tcp_cluster",
    "sharded_tcp_cluster",
    "AutomatonNode",
    "ClientNode",
    "DelayFunction",
    "InMemoryTransport",
    "TcpTransport",
    "Transport",
    "constant_delay",
    "no_delay",
]
