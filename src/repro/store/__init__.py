"""Sharded multi-register store.

The paper's algorithm implements a *single* SWMR register.  This subsystem
multiplexes many independent register instances — one writer each, shared
readers — over one shared server fleet and transport:

* :mod:`repro.store.sharding` — the routing automata (:class:`ShardedServer`,
  :class:`ShardedClient`) and the :class:`ShardedProtocol` suite that builds
  a full sharded deployment from any base protocol suite around one keyspace
  table of per-key :class:`~repro.core.protocol.RegisterSpec` values;
* :mod:`repro.store.surface` — :class:`StoreSurface`, the one store façade:
  keyspace, dynamic keys, per-key histories and their atomicity verdicts;
* :mod:`repro.store.sim` — :class:`ShardedSimStore`, a
  :class:`~repro.sim.cluster.SimCluster` with the façade and keyed
  ``start_*`` / blocking ``write(key, value)`` / ``read(key)`` verbs;
* :class:`repro.runtime.cluster.ShardedAsyncCluster` is the same façade plus
  awaitable verbs (re-exported here lazily to keep the import graph acyclic).

Every register behaves exactly like the paper's lucky-atomic register: the
sharding layer only routes messages by ``register_id`` and never touches the
protocol logic, so all proofs carry over per key.
"""

from __future__ import annotations

from .sharding import RegisterSpec, ShardedClient, ShardedProtocol, ShardedServer
from .sim import ShardedSimStore
from .surface import StoreSurface

__all__ = [
    "RegisterSpec",
    "ShardedClient",
    "ShardedProtocol",
    "ShardedServer",
    "ShardedSimStore",
    "StoreSurface",
    "ShardedAsyncCluster",
    "sharded_tcp_cluster",
]


def __getattr__(name: str):
    # Lazy: repro.runtime.cluster imports this package, so importing it eagerly
    # here would create a cycle.
    if name in ("ShardedAsyncCluster", "sharded_tcp_cluster"):
        from ..runtime import cluster as _runtime_cluster

        return getattr(_runtime_cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
