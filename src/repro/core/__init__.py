"""Core implementation of the paper's algorithm (Section 3, Figures 1-3)."""

from .automaton import (
    Automaton,
    ClientAutomaton,
    Effects,
    OperationComplete,
    Send,
    StartTimer,
    TimerPolicy,
)
from .config import (
    ConfigurationError,
    SystemConfig,
    feasible_threshold_pairs,
    frontier_threshold_pairs,
)
from .messages import (
    BaselineQuery,
    BaselineQueryReply,
    BaselineStore,
    BaselineStoreAck,
    Message,
    PreWrite,
    PreWriteAck,
    Read,
    ReadAck,
    TimestampQuery,
    TimestampQueryAck,
    Write,
    WriteAck,
)
from .mwmr import MultiWriterClient
from .predicates import ServerView, ViewTable
from .protocol import LuckyAtomicProtocol, ProtocolSuite
from .reader import AtomicReader
from .server import StorageServer
from .types import (
    BOTTOM,
    INITIAL_PAIR,
    INITIAL_READ_TIMESTAMP,
    INITIAL_TIMESTAMP,
    FreezeDirective,
    FrozenEntry,
    NewReadReport,
    TimestampValue,
    is_bottom,
)
from .writer import AtomicWriter

__all__ = [
    "Automaton",
    "ClientAutomaton",
    "Effects",
    "OperationComplete",
    "Send",
    "StartTimer",
    "TimerPolicy",
    "ConfigurationError",
    "SystemConfig",
    "feasible_threshold_pairs",
    "frontier_threshold_pairs",
    "Message",
    "PreWrite",
    "PreWriteAck",
    "Write",
    "WriteAck",
    "TimestampQuery",
    "TimestampQueryAck",
    "Read",
    "ReadAck",
    "MultiWriterClient",
    "BaselineQuery",
    "BaselineQueryReply",
    "BaselineStore",
    "BaselineStoreAck",
    "ServerView",
    "ViewTable",
    "LuckyAtomicProtocol",
    "ProtocolSuite",
    "AtomicReader",
    "StorageServer",
    "AtomicWriter",
    "BOTTOM",
    "INITIAL_PAIR",
    "INITIAL_READ_TIMESTAMP",
    "INITIAL_TIMESTAMP",
    "FreezeDirective",
    "FrozenEntry",
    "NewReadReport",
    "TimestampValue",
    "is_bottom",
]
