"""Event types and the event queue of the discrete-event simulator.

The simulator advances a virtual clock from event to event.  Three kinds of
events exist: message deliveries, timer expirations and scheduled invocations
(a closure to run at a given virtual time, used by workloads to start
operations).  Ties on the timestamp are broken by a monotonically increasing
sequence number so runs are fully deterministic.

The queue is two structures behind one facade:

* a **general heap** of ``(time, seq, event)`` tuples for deliveries and
  invocations — raw tuples, so heap comparisons are C-level tuple
  comparisons instead of dataclass ``__lt__`` calls, and
* an amortized **timer wheel** for the per-operation protocol timers: a heap
  of ``(time, seq, process_id, timer_id)`` tuples next to an armed-table of
  live armament *counts* keyed by ``(process_id, timer_id)``.  Cancelling a
  timer is an O(1) table removal plus a per-key sequence watermark: heap
  tuples with a sequence number below their key's watermark are dead.  Dead
  tuples are tombstone-counted and discarded when they surface, never
  dispatched — cancelled timers therefore do not inflate the simulator's
  ``events_processed`` counter — and while no tombstone is outstanding the
  liveness check is a single integer test, so the dominant
  every-timer-fires workload pays nothing for cancellability.

Both structures draw sequence numbers from one shared counter, so the merged
pop order is exactly the ``(time, seq)`` order a single heap would produce —
the equivalence the hypothesis suite in ``tests/unit/test_sim_events.py``
pins.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.messages import Message


@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """Delivery of *message* (sent by *source*) to *destination*."""

    source: str
    destination: str
    message: Message


@dataclass(frozen=True, slots=True)
class TimerEvent:
    """Expiration of the timer *timer_id* at process *process_id*."""

    process_id: str
    timer_id: str


@dataclass(frozen=True, slots=True)
class InvocationEvent:
    """Run *action* (a zero-argument callable) at the scheduled time."""

    label: str
    action: Callable[[], None]


SimEvent = Any  # DeliveryEvent | TimerEvent | InvocationEvent

#: A timer-wheel key: the ``(process_id, timer_id)`` pair timers are armed
#: and cancelled under.
TimerKey = Tuple[str, str]


class EventQueue:
    """A deterministic priority queue of simulator events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, SimEvent]] = []
        self._timer_heap: List[Tuple[float, int, str, str]] = []
        # Live armament count per (process_id, timer_id).  A timer id armed
        # twice has a count of two and fires twice, in order — the same
        # behaviour two independent heap entries used to have.
        self._armed: Dict[TimerKey, int] = {}
        # Cancellation watermarks: a timer-heap tuple is dead iff its seq is
        # below its key's watermark (every armament live at cancel time was
        # issued an earlier seq; every later re-arm gets a later one).  The
        # table only exists while tombstones are in the heap.
        self._cancel_floor: Dict[TimerKey, int] = {}
        #: Dead tuples still inside the timer heap.  Zero on the hot path,
        #: where the liveness check collapses to one integer test.
        self._tombstones: int = 0
        self._cancelled: Set[int] = set()
        self._seq = 0
        #: Timers cancelled before firing.  Their heap tuples become
        #: tombstones, compacted (never dispatched) when they reach the top.
        self.timers_cancelled: int = 0

    def __len__(self) -> int:
        live_general = sum(1 for entry in self._heap if entry[1] not in self._cancelled)
        return live_general + sum(self._armed.values())

    def push(self, time: float, event: SimEvent) -> int:
        """Schedule *event* at virtual time *time*; returns a cancellable handle."""
        if time < 0:
            raise ValueError("events cannot be scheduled in negative time")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return seq

    def push_timer(self, time: float, process_id: str, timer_id: str) -> None:
        """Arm the timer ``(process_id, timer_id)`` to fire at virtual *time*."""
        if time < 0:
            raise ValueError("events cannot be scheduled in negative time")
        seq = self._seq
        self._seq = seq + 1
        armed = self._armed
        key = (process_id, timer_id)
        armed[key] = armed.get(key, 0) + 1
        heapq.heappush(self._timer_heap, (time, seq, process_id, timer_id))

    def cancel(self, handle: int) -> None:
        """Cancel a previously pushed general event (lazy removal)."""
        self._cancelled.add(handle)

    def cancel_timer(self, process_id: str, timer_id: str) -> int:
        """Disarm every pending armament of ``(process_id, timer_id)``.

        O(1) in the heap size: only the armed-table entry is dropped; the
        heap tuples die in place and are discarded when they surface.
        Returns the number of armaments cancelled (0 when none was pending,
        e.g. because the timer already fired).
        """
        count = self._armed.pop((process_id, timer_id), 0)
        if not count:
            return 0
        # Everything armed so far sits below the next seq; re-arms go above.
        self._cancel_floor[(process_id, timer_id)] = self._seq
        self._tombstones += count
        self.timers_cancelled += count
        return count

    def timer_armed(self, process_id: str, timer_id: str) -> bool:
        """Whether ``(process_id, timer_id)`` has at least one live armament."""
        return (process_id, timer_id) in self._armed

    # ------------------------------------------------------------- internals
    def _general_top(self) -> Optional[Tuple[float, int]]:
        """Compact cancelled entries; return the live top's ``(time, seq)``."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.discard(heap[0][1])
            heapq.heappop(heap)
        if not heap:
            return None
        return (heap[0][0], heap[0][1])

    def _timer_top(self) -> Optional[Tuple[float, int]]:
        """Compact dead timer tuples; return the live top's ``(time, seq)``."""
        heap = self._timer_heap
        if self._tombstones:
            floor = self._cancel_floor
            while heap:
                entry = heap[0]
                if entry[1] >= floor.get((entry[2], entry[3]), 0):
                    break
                heapq.heappop(heap)  # tombstone of a cancelled armament
                self._tombstones -= 1
                if not self._tombstones:
                    # No dead tuples remain, so no watermark can matter again:
                    # re-arms after a cancel always sit above the old floor.
                    floor.clear()
                    break
        if not heap:
            return None
        entry = heap[0]
        return (entry[0], entry[1])

    # -------------------------------------------------------------- pop/peek
    def pop(self) -> Optional[Tuple[float, SimEvent]]:
        """Remove and return the earliest live ``(time, event)``, or ``None``.

        Timer events are materialized here, on the live pop only — cancelled
        timers never allocate a :class:`TimerEvent` at all.
        """
        return self.pop_due(float("inf"))

    def pop_due(self, max_time: float) -> Optional[Tuple[float, SimEvent]]:
        """Pop the earliest live event if it is due by *max_time*, else ``None``.

        The run loop's fused peek-and-pop: one compaction pass decides both
        the horizon check and the pop, instead of paying ``peek_time`` and
        ``pop`` separately per event.  ``None`` means the queue is drained
        *or* the next event lies beyond the horizon; ``peek_time``
        distinguishes the two when a caller cares.
        """
        general = self._general_top()
        timer = self._timer_top()
        if timer is None or (general is not None and general < timer):
            if general is None or general[0] > max_time:
                return None
            time, _seq, event = heapq.heappop(self._heap)
            return (time, event)
        if timer[0] > max_time:
            return None
        time, _seq, process_id, timer_id = heapq.heappop(self._timer_heap)
        armed = self._armed
        key = (process_id, timer_id)
        count = armed[key] - 1
        if count:
            armed[key] = count
        else:
            del armed[key]
        return (time, TimerEvent(process_id, timer_id))

    def peek_time(self) -> Optional[float]:
        """The virtual time of the next pending event, or ``None`` if empty."""
        general = self._general_top()
        timer = self._timer_top()
        if general is None:
            return None if timer is None else timer[0]
        if timer is None:
            return general[0]
        return min(general, timer)[0]
