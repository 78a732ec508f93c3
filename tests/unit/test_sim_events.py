"""Unit tests for the simulator's event queue and event types.

The queue is one heap that cancels timers lazily; the hypothesis suite here
pins the contract that matters: the pop order is *exactly* the ``(time,
seq)`` order of a reference that removes cancelled timers eagerly, and
cancelled timers are counted instead of dispatched.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import SimCluster
from repro.sim.events import DeliveryEvent, EventQueue, InvocationEvent, TimerEvent
from repro.store.sim import ShardedSimStore
from repro.core.messages import Read


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        queue.push_timer(5.0, "p1", "a")
        queue.push_timer(1.0, "p1", "b")
        queue.push_timer(3.0, "p1", "c")
        order = [queue.pop()[1].timer_id for _ in range(3)]
        assert order == ["b", "c", "a"]

    def test_pop_returns_time_alongside_event(self):
        queue = EventQueue()
        queue.push_timer(2.5, "p1", "t")
        time, event = queue.pop()
        assert time == 2.5
        assert event == TimerEvent("p1", "t")

    def test_ties_break_by_insertion_order_across_structures(self):
        # General events and timers share one sequence counter, so a tie on
        # the timestamp resolves by arrival order whatever the event kind.
        queue = EventQueue()
        queue.push(1.0, InvocationEvent("first", lambda: None))
        queue.push_timer(1.0, "p1", "second")
        queue.push(1.0, InvocationEvent("third", lambda: None))
        labels = []
        for _ in range(3):
            _time, event = queue.pop()
            labels.append(event.label if isinstance(event, InvocationEvent) else event.timer_id)
        assert labels == ["first", "second", "third"]

    def test_pop_on_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_pop_due_respects_the_horizon(self):
        queue = EventQueue()
        queue.push_timer(2.0, "p1", "t")
        queue.push(5.0, InvocationEvent("later", lambda: None))
        assert queue.pop_due(1.0) is None
        assert len(queue) == 2  # a refused pop removes nothing
        assert queue.pop_due(2.0) == (2.0, TimerEvent("p1", "t"))
        assert queue.pop_due(2.0) is None
        assert queue.peek_time() == 5.0  # beyond-horizon, not drained
        assert queue.pop_due(5.0)[1].label == "later"
        assert queue.pop_due(100.0) is None and queue.peek_time() is None

    def test_rearm_after_cancel_fires_at_the_new_time(self):
        # Cancelling must kill only the old armament: the entry at t=1 dies,
        # the re-arm at t=4 fires.
        queue = EventQueue()
        queue.push_timer(1.0, "p1", "t")
        assert queue.cancel_timer("p1", "t") == 1
        queue.push_timer(4.0, "p1", "t")
        queue.push_timer(2.0, "p2", "other")
        assert queue.pop() == (2.0, TimerEvent("p2", "other"))
        assert queue.pop() == (4.0, TimerEvent("p1", "t"))
        assert queue.pop() is None
        assert queue.timers_cancelled == 1

    def test_peek_time_reports_earliest(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(7.0, InvocationEvent("x", lambda: None))
        queue.push_timer(2.0, "p1", "y")
        assert queue.peek_time() == 2.0

    def test_cancel_timer_disarms_before_firing(self):
        queue = EventQueue()
        queue.push_timer(1.0, "p1", "dead")
        queue.push_timer(2.0, "p1", "live")
        assert queue.cancel_timer("p1", "dead") == 1
        assert queue.peek_time() == 2.0
        assert queue.pop() == (2.0, TimerEvent("p1", "live"))
        assert queue.pop() is None
        assert queue.timers_cancelled == 1

    def test_cancel_timer_after_fire_is_noop(self):
        queue = EventQueue()
        queue.push_timer(1.0, "p1", "t")
        assert queue.pop() == (1.0, TimerEvent("p1", "t"))
        assert queue.cancel_timer("p1", "t") == 0
        assert queue.timers_cancelled == 0

    def test_cancel_unknown_timer_is_noop(self):
        queue = EventQueue()
        assert queue.cancel_timer("p1", "never-armed") == 0
        assert queue.timers_cancelled == 0

    def test_rearming_a_pending_timer_replaces_its_armament(self):
        queue = EventQueue()
        queue.push_timer(1.0, "p1", "t")
        queue.push_timer(2.0, "p1", "t")  # replaces the armament at 1.0
        assert len(queue) == 1
        assert queue.pop() == (2.0, TimerEvent("p1", "t"))
        assert not queue.timer_armed("p1", "t")
        queue.push_timer(3.0, "p1", "t")
        queue.push_timer(4.0, "p1", "t")
        assert queue.cancel_timer("p1", "t") == 1
        assert queue.timers_cancelled == 1
        assert queue.pop() is None
        assert not queue.timer_armed("p1", "t")

    def test_len_counts_live_entries_only(self):
        queue = EventQueue()
        queue.push(1.0, InvocationEvent("a", lambda: None))
        queue.push_timer(2.0, "p1", "b")
        queue.push_timer(3.0, "p1", "c")
        assert len(queue) == 3
        queue.cancel_timer("p1", "b")
        assert len(queue) == 2
        assert queue.pop()[1].label == "a"
        assert len(queue) == 1
        queue.cancel_timer("p1", "c")
        assert len(queue) == 0
        assert queue.pop() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, InvocationEvent("x", lambda: None))
        with pytest.raises(ValueError):
            EventQueue().push_timer(-1.0, "p1", "x")


# --------------------------------------------------------------------------- #
# Ordering equivalence: lazy cancellation vs an eager reference
# --------------------------------------------------------------------------- #


class _ReferenceQueue:
    """One sorted structure of ``(time, seq, event)``.

    Cancelling or re-arming a timer removes its pending entry eagerly — the
    semantics the lazy cancellation of the real queue must be
    indistinguishable from.
    """

    def __init__(self):
        self._entries = []
        self._counter = itertools.count()

    def push(self, time, event):
        self._entries.append((time, next(self._counter), event))

    def push_timer(self, time, process_id, timer_id):
        self.cancel_timer(process_id, timer_id)
        self.push(time, TimerEvent(process_id, timer_id))

    def cancel_timer(self, process_id, timer_id):
        dead = TimerEvent(process_id, timer_id)
        before = len(self._entries)
        self._entries = [e for e in self._entries if e[2] != dead]
        return before - len(self._entries)

    def pop(self):
        if not self._entries:
            return None
        entry = min(self._entries)
        self._entries.remove(entry)
        return (entry[0], entry[2])


_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 3.0])  # duplicates force ties
_PIDS = st.sampled_from(["p1", "p2"])
_TIDS = st.sampled_from(["ta", "tb", "tc"])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _TIMES),
        st.tuples(st.just("timer"), _TIMES, _PIDS, _TIDS),
        st.tuples(st.just("cancel"), _PIDS, _TIDS),
        st.tuples(st.just("pop")),
    ),
    max_size=60,
)


class TestOrderingEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_wheel_pop_order_matches_single_heap(self, ops):
        real, reference = EventQueue(), _ReferenceQueue()
        label = itertools.count()
        for op in ops:
            if op[0] == "push":
                event = InvocationEvent(f"e{next(label)}", lambda: None)
                real.push(op[1], event)
                reference.push(op[1], event)
            elif op[0] == "timer":
                real.push_timer(op[1], op[2], op[3])
                reference.push_timer(op[1], op[2], op[3])
            elif op[0] == "cancel":
                assert real.cancel_timer(op[1], op[2]) == reference.cancel_timer(op[1], op[2])
            else:
                assert real.pop() == reference.pop()
        # Drain both: every remaining event surfaces in identical order.
        while True:
            got, want = real.pop(), reference.pop()
            assert got == want
            if got is None:
                break
        assert len(real) == 0

    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS)
    def test_peek_time_matches_single_heap(self, ops):
        real, reference = EventQueue(), _ReferenceQueue()
        for op in ops:
            if op[0] == "push":
                event = InvocationEvent("e", lambda: None)
                real.push(op[1], event)
                reference.push(op[1], event)
            elif op[0] == "timer":
                real.push_timer(op[1], op[2], op[3])
                reference.push_timer(op[1], op[2], op[3])
            elif op[0] == "cancel":
                real.cancel_timer(op[1], op[2])
                reference.cancel_timer(op[1], op[2])
            else:
                real.pop()
                reference.pop()
            head = reference.pop()
            assert real.peek_time() == (None if head is None else head[0])
            if head is not None:  # put it back: peek must not consume
                reference._entries.append((head[0], -1, head[1]))
                got = real.pop()
                assert got == head
                reference._entries.remove((head[0], -1, head[1]))


# --------------------------------------------------------------------------- #
# Cancelled timers and the cluster's event accounting
# --------------------------------------------------------------------------- #


class TestClusterTimerAccounting:
    def test_cancelled_timer_never_counts_as_processed_event(self):
        cluster = SimCluster(
            LuckyAtomicProtocol(SystemConfig.balanced(1, 0, num_readers=1)),
        )
        cluster.queue.push_timer(1.0, "zz-nobody", "ghost")
        cluster.queue.cancel_timer("zz-nobody", "ghost")
        before = cluster.events_processed
        cluster.run_until_quiescent()
        assert cluster.events_processed == before
        assert cluster.timers_cancelled == 1

    def test_lease_revoke_cancels_timers_without_inflating_events(self):
        # A write to a leased key revokes the holder's lease; the holder's
        # expire/renew timers are disarmed and must be counted as cancelled,
        # not as processed events.
        store = ShardedSimStore(
            LuckyAtomicProtocol(SystemConfig.balanced(1, 0, num_readers=2)),
            ["hot"],
            leases=["hot"],
        )
        store.write("hot", "v1")
        store.read("hot", "r1")  # acquires the lease, arms expire + renew
        store.write("hot", "v2")  # revokes it
        assert store.timers_cancelled > 0
        # Draining the remaining *live* timers (the servers' lease-expiry
        # watchdogs) dispatches real events; the cancelled holder timers do
        # not reappear — once quiescent, nothing is left and the cancelled
        # count stands apart from ``events_processed``.
        store.run_until_quiescent()
        assert len(store.queue) == 0
        assert store.verify_atomic()


class TestEventTypes:
    def test_delivery_event_carries_message(self):
        message = Read(sender="r1", read_ts=1, round=1)
        event = DeliveryEvent(source="r1", destination="s1", message=message)
        assert event.message is message
        assert event.destination == "s1"

    def test_invocation_event_runs_action(self):
        hits = []
        event = InvocationEvent(label="demo", action=lambda: hits.append(1))
        event.action()
        assert hits == [1]

    def test_event_types_are_slotted(self):
        # Hot-loop event objects must not carry a per-instance __dict__.
        event = TimerEvent("p1", "t")
        assert not hasattr(event, "__dict__")
