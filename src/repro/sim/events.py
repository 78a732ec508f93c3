"""Event types and the event queue of the discrete-event simulator.

The simulator advances a virtual clock from event to event.  Three kinds of
events exist: message deliveries, timer expirations and scheduled invocations
(a closure to run at a given virtual time, used by workloads to start
operations).  Ties on the timestamp are broken by a monotonically increasing
sequence number so runs are fully deterministic.

The queue is one heap of ``(time, seq, event)`` tuples — raw tuples, so heap
comparisons are C-level tuple comparisons (sequence numbers are unique, so
two events are never compared).  Protocol timers are armed and cancelled
under their ``(process_id, timer_id)`` key, which has at most one pending
armament: re-arming a pending key replaces it.  Cancelling or replacing moves
the key's live sequence number into a dead set, and a dead entry is discarded
when it surfaces, never dispatched — so cancelled timers do not inflate the
simulator's ``events_processed`` counter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.messages import Message
from ..core.types import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """Delivery of *message* (sent by *source*) to *destination*."""

    source: str
    destination: str
    message: Message


@slot_init
@dataclass(frozen=True, slots=True)
class TimerEvent:
    """Expiration of the timer *timer_id* at process *process_id*."""

    process_id: str
    timer_id: str


@slot_init
@dataclass(frozen=True, slots=True)
class InvocationEvent:
    """Run *action* (a zero-argument callable) at the scheduled time."""

    label: str
    action: Callable[[], None]


SimEvent = Any  # DeliveryEvent | TimerEvent | InvocationEvent

#: The ``(process_id, timer_id)`` pair timers are armed and cancelled under.
TimerKey = Tuple[str, str]


class EventQueue:
    """A deterministic priority queue of simulator events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, SimEvent]] = []
        # The sequence number of each key's pending armament.
        self._armed: Dict[TimerKey, int] = {}
        # Sequence numbers of cancelled timers still inside the heap.
        self._dead: Set[int] = set()
        self._seq = 0
        #: Timers cancelled before firing.
        self.timers_cancelled: int = 0

    def __len__(self) -> int:
        return len(self._heap) - len(self._dead)

    def push(self, time: float, event: SimEvent) -> int:
        """Schedule *event* at virtual time *time*; returns its sequence number."""
        if time < 0:
            raise ValueError("events cannot be scheduled in negative time")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return seq

    def push_timer(self, time: float, process_id: str, timer_id: str) -> None:
        """Arm the timer ``(process_id, timer_id)`` to fire at virtual *time*,
        replacing its pending armament, if it has one."""
        key = (process_id, timer_id)
        replaced = self._armed.get(key)
        if replaced is not None:
            self._dead.add(replaced)
        self._armed[key] = self.push(time, TimerEvent(process_id, timer_id))

    def cancel_timer(self, process_id: str, timer_id: str) -> int:
        """Disarm the pending armament of ``(process_id, timer_id)``.

        Returns the number of armaments cancelled: 1, or 0 when none was
        pending (e.g. because the timer already fired).
        """
        seq = self._armed.pop((process_id, timer_id), None)
        if seq is None:
            return 0
        self._dead.add(seq)
        self.timers_cancelled += 1
        return 1

    def timer_armed(self, process_id: str, timer_id: str) -> bool:
        """Whether ``(process_id, timer_id)`` has a live armament."""
        return (process_id, timer_id) in self._armed

    def _top(self) -> Optional[Tuple[float, int, SimEvent]]:
        """Discard the dead entries at the top; return the live top, if any."""
        heap = self._heap
        dead = self._dead
        while heap and heap[0][1] in dead:
            dead.remove(heapq.heappop(heap)[1])
        return heap[0] if heap else None

    def pop(self) -> Optional[Tuple[float, SimEvent]]:
        """Remove and return the earliest live ``(time, event)``, or ``None``."""
        return self.pop_due(float("inf"))

    def pop_due(self, max_time: float) -> Optional[Tuple[float, SimEvent]]:
        """Pop the earliest live event if it is due by *max_time*, else ``None``.

        ``None`` means the queue is drained *or* the next event lies beyond
        the horizon; ``peek_time`` distinguishes the two when a caller cares.
        """
        top = self._top()
        if top is None or top[0] > max_time:
            return None
        time, _, event = heapq.heappop(self._heap)
        if type(event) is TimerEvent:
            # A live timer entry is its key's pending armament.
            del self._armed[(event.process_id, event.timer_id)]
        return (time, event)

    def peek_time(self) -> Optional[float]:
        """The virtual time of the next pending event, or ``None`` if empty."""
        top = self._top()
        return None if top is None else top[0]
