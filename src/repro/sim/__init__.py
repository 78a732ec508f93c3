"""Discrete-event simulation substrate (virtual time, topology, failures, Byzantine servers).

The network has one model, :class:`Topology`: zoned :class:`LinkMetrics`
with the partition and gray-failure windows of a :class:`NetworkSchedule`.
"""

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
from .topology import PROFILE_NAMES, FixedDelay, LinkMetrics, Topology
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
    "PROFILE_NAMES",
    "FixedDelay",
    "LinkMetrics",
    "Topology",
    "MessageTrace",
]
