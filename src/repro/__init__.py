"""repro — reproduction of "Lucky Read/Write Access to Robust Atomic Storage".

Guerraoui, Levy and Vukolić, DSN 2006 (EPFL TR LPD-REPORT-2005-005).

The package implements the paper's optimally resilient SWMR atomic storage with
fast *lucky* operations, the variants from its appendices, the baselines it is
compared against, a deterministic discrete-event simulator, an asyncio runtime,
consistency checkers and a benchmark harness reproducing every claim.

Quick start::

    from repro import SystemConfig, LuckyAtomicProtocol, SimCluster

    config = SystemConfig(t=2, b=1, fw=1, fr=0)       # S = 2t + b + 1 = 6 servers
    cluster = SimCluster(LuckyAtomicProtocol(config))
    write = cluster.write("hello")                     # fast: one round-trip
    read = cluster.read("r1")                          # fast: one round-trip
    assert read.value == "hello"
"""

from .baselines import ABDProtocol, SlowRobustProtocol
from .core import (
    BOTTOM,
    AtomicReader,
    AtomicWriter,
    ConfigurationError,
    LuckyAtomicProtocol,
    ProtocolSuite,
    StorageServer,
    SystemConfig,
    TimerPolicy,
    TimestampValue,
    is_bottom,
)
from .runtime import (
    AsyncCluster,
    ShardedAsyncCluster,
    sharded_tcp_cluster,
    tcp_cluster,
)
from .sim import (
    FailureSchedule,
    FixedDelay,
    LinkMetrics,
    NetworkSchedule,
    SimCluster,
    Topology,
)
from .store import ShardedProtocol, ShardedSimStore
from .variants import (
    RegularStorageProtocol,
    TradingReadsProtocol,
    TradingWritesProtocol,
    TwoRoundWriteProtocol,
)
from .verify import History, check_atomicity, check_regularity, is_linearizable

__version__ = "1.0.0"

__all__ = [
    "ABDProtocol",
    "SlowRobustProtocol",
    "BOTTOM",
    "AtomicReader",
    "AtomicWriter",
    "ConfigurationError",
    "LuckyAtomicProtocol",
    "ProtocolSuite",
    "StorageServer",
    "SystemConfig",
    "TimerPolicy",
    "TimestampValue",
    "is_bottom",
    "AsyncCluster",
    "ShardedAsyncCluster",
    "ShardedProtocol",
    "ShardedSimStore",
    "sharded_tcp_cluster",
    "tcp_cluster",
    "FailureSchedule",
    "FixedDelay",
    "LinkMetrics",
    "NetworkSchedule",
    "SimCluster",
    "Topology",
    "RegularStorageProtocol",
    "TradingReadsProtocol",
    "TradingWritesProtocol",
    "TwoRoundWriteProtocol",
    "History",
    "check_atomicity",
    "check_regularity",
    "is_linearizable",
    "__version__",
]
