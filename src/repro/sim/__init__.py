"""Discrete-event simulation substrate (virtual time, topology, failures, Byzantine servers)."""

from .byzantine import (
    ByzantineStrategy,
    DelayedHonestyStrategy,
    EquivocationStrategy,
    ForgeHighTimestampStrategy,
    ForgedStateStrategy,
    MaliciousServer,
    MuteStrategy,
    StaleReplayStrategy,
    TwoFacedStrategy,
    make_strategy,
)
from .cluster import DROP, OperationHandle, SimCluster, SimulationError
from .events import DeliveryEvent, EventQueue, InvocationEvent, TimerEvent
from .failures import (
    FailureSchedule,
    GrayWindow,
    NetworkSchedule,
    PartitionWindow,
)
from .latency import (
    AsynchronousWindows,
    DelayModel,
    FixedDelay,
    LogNormalDelay,
    PerLinkDelay,
    SlowProcessDelay,
    UniformDelay,
)
from .topology import PROFILE_NAMES, DelayModelTopology, LinkMetrics, Topology
from .trace import MessageTrace

__all__ = [
    "ByzantineStrategy",
    "DelayedHonestyStrategy",
    "EquivocationStrategy",
    "ForgeHighTimestampStrategy",
    "ForgedStateStrategy",
    "MaliciousServer",
    "MuteStrategy",
    "StaleReplayStrategy",
    "TwoFacedStrategy",
    "make_strategy",
    "DROP",
    "OperationHandle",
    "SimCluster",
    "SimulationError",
    "DeliveryEvent",
    "EventQueue",
    "InvocationEvent",
    "TimerEvent",
    "FailureSchedule",
    "GrayWindow",
    "NetworkSchedule",
    "PartitionWindow",
    "AsynchronousWindows",
    "DelayModel",
    "FixedDelay",
    "LogNormalDelay",
    "PerLinkDelay",
    "SlowProcessDelay",
    "UniformDelay",
    "PROFILE_NAMES",
    "DelayModelTopology",
    "LinkMetrics",
    "Topology",
    "MessageTrace",
]
