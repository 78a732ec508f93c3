"""The process host, driven with no event loop and no SimCluster.

Both runtimes step their automata through :class:`repro.core.host.ProcessHost`;
these tests pin what the host promises them so the loop cannot quietly grow a
second copy in either runtime.
"""

import pytest

from repro.core.automaton import Automaton, Effects, OperationComplete
from repro.core.config import SystemConfig
from repro.core.host import OperationHandle, ProcessHost
from repro.core.messages import Batch, PreWrite, ReadAck, Write
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.server import StorageServer
from repro.core.types import TimestampValue
from repro.persist.durable import DurableServer
from repro.persist.wal import MemoryWAL
from repro.verify.history import OperationRecord

CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)


class Echo(Automaton):
    """Answers every message with one send naming it, and remembers the order."""

    def __init__(self, process_id="echo"):
        super().__init__(process_id)
        self.stepped = []

    def handle_message(self, message):
        self.stepped.append(message)
        effects = Effects()
        effects.send(message.sender, ReadAck(sender=self.process_id, read_ts=message.read_ts))
        return effects


class TestFence:
    def test_host_rejects_messages_from_superseded_incarnations(self):
        """Once a host has seen epoch n from a peer, epoch < n is stale."""
        host = ProcessHost(StorageServer("r-probe", CONFIG))
        assert host.admit(ReadAck(sender="s1", epoch=0))
        assert host.admit(ReadAck(sender="s1", epoch=2))
        # A straggler from the pre-crash incarnation is fenced off...
        assert not host.admit(ReadAck(sender="s1", epoch=1))
        # ... while the current incarnation and other peers flow freely.
        assert host.admit(ReadAck(sender="s1", epoch=2))
        assert host.admit(ReadAck(sender="s2", epoch=0))

    def test_a_fresh_host_has_forgotten_the_fence(self):
        host = ProcessHost(Echo())
        assert host.admit(ReadAck(sender="s1", epoch=3))
        assert ProcessHost(host.automaton).admit(ReadAck(sender="s1", epoch=0))

    def test_a_fenced_message_yields_none_and_is_not_stepped(self):
        echo = Echo()
        host = ProcessHost(echo)
        fresh = ReadAck(sender="s1", epoch=1, read_ts=1)
        stale = ReadAck(sender="s1", epoch=0, read_ts=2)
        other = ReadAck(sender="s2", epoch=0, read_ts=3)
        results = host.deliver("s1", Batch(sender="s1", messages=(fresh, stale)))
        results += host.deliver("s2", other)
        assert [message for message, _ in results] == [fresh, stale, other]
        assert results[1][1] is None
        assert echo.stepped == [fresh, other]


class TestSenderFence:
    """A message counts as its sender's only on the sender's own channel."""

    def test_a_message_under_another_senders_id_yields_none_and_is_not_stepped(self):
        echo = Echo()
        host = ProcessHost(echo)
        own = ReadAck(sender="s1", read_ts=1)
        forged = tuple(ReadAck(sender=sender, read_ts=2) for sender in ("s2", "s3"))
        results = host.deliver("s1", Batch(sender="s1", messages=(own, *forged)))
        assert [effects is None for _, effects in results] == [False, True, True]
        assert echo.stepped == [own]

    def test_an_impersonation_does_not_move_the_impersonated_senders_fence(self):
        echo = Echo()
        host = ProcessHost(echo)
        host.deliver("s1", ReadAck(sender="s2", epoch=5))
        genuine = ReadAck(sender="s2", epoch=0)
        [(_, effects)] = host.deliver("s2", genuine)
        assert effects is not None and echo.stepped == [genuine]


class TestFrameStep:
    def test_effects_come_back_per_message_in_frame_order(self):
        host = ProcessHost(Echo())
        frame = Batch(
            sender="s1", messages=tuple(ReadAck(sender="s1", read_ts=ts) for ts in (5, 3, 9))
        )
        results = host.deliver("s1", frame)
        assert [m.read_ts for m, _ in results] == [5, 3, 9]
        assert [e.sends[0].message.read_ts for _, e in results] == [5, 3, 9]

    def test_a_lone_message_is_a_frame_of_one(self):
        message = ReadAck(sender="s1", read_ts=7)
        [(stepped, effects)] = ProcessHost(Echo()).deliver("s1", message)
        assert stepped is message and effects.sends[0].message.read_ts == 7

    def test_a_multi_message_frame_is_one_wal_append_closed_before_any_effect(self):
        class WatchedWAL(MemoryWAL):
            returned = False

            def append(self, records):
                assert not self.returned, "the host returned effects before the append"
                super().append(records)

        wal = WatchedWAL()
        host = ProcessHost(DurableServer(StorageServer("s1", CONFIG), wal))
        frame = Batch(
            sender="w",
            messages=tuple(
                Write(sender="w", round=2, ts=ts, pair=TimestampValue(ts, f"v{ts}"))
                for ts in (1, 2, 3)
            ),
        )
        results = host.deliver("w", frame)
        wal.returned = True
        assert wal.batches_appended == 1 and wal.record_count == 6
        assert len(results) == 3 and all(effects.sends for _, effects in results)

    def test_an_automaton_without_a_log_is_stepped_without_a_scope(self):
        frame = Batch(sender="w", messages=(PreWrite(sender="w", ts=1), PreWrite(sender="w", ts=2)))
        results = ProcessHost(StorageServer("s1", CONFIG)).deliver("w", frame)
        assert len(results) == 2 and all(effects.sends for _, effects in results)


class BatchingEcho(Echo):
    batching = True


class TestOutbox:
    def test_three_sends_to_two_destinations_drain_as_two_frames(self):
        host = ProcessHost(BatchingEcho("w"))
        first, second, third = (PreWrite(sender="w", ts=ts) for ts in (1, 2, 3))
        host.buffer("s1", first)
        host.buffer("s2", second)
        host.buffer("s1", third)
        frames = dict(host.drain())
        assert frames == {"s1": Batch(sender="w", messages=(first, third)), "s2": second}
        assert host.drain() == []

    def test_without_batching_every_message_is_its_own_frame(self):
        host = ProcessHost(Echo("w"))
        first, second, third = (PreWrite(sender="w", ts=ts) for ts in (1, 2, 3))
        host.buffer("s1", first)
        host.buffer("s2", second)
        host.buffer("s1", third)
        assert host.drain() == [("s1", first), ("s1", third), ("s2", second)]
        assert host.drain() == []


class TestOperationSlots:
    def test_an_invocation_that_raises_leaves_no_slot(self):
        host = ProcessHost(LuckyAtomicProtocol(CONFIG).create_writer())
        with pytest.raises(AttributeError):
            host.invoke("read", None, (), now=0.0)  # the writer has no read()
        assert host.open == {}
        handle, effects = host.invoke("write", None, ("x",), now=1.0)
        assert host.open == {None: handle} and effects.sends
        assert (handle.kind, handle.requested_value, handle.invoked_at) == ("write", "x", 1.0)

    def test_a_completion_inside_the_invocations_own_effects_finds_its_slot(self):
        class ZeroRound(Automaton):
            def read(self, key):
                effects = Effects()
                effects.complete(
                    OperationComplete(1, "read", "cached", 0, True, register_id=key)
                )
                return effects

        host = ProcessHost(ZeroRound("r1"))
        handle, effects = host.invoke("read", "k", (), now=2.0)
        [completion] = effects.completions
        assert host.complete(completion, now=2.0) is handle
        assert handle.done and handle.latency == 0.0 and host.open == {}
        assert host.complete(completion, now=3.0) is None  # nothing open any more


def record(**fields):
    return OperationRecord(**{"rounds": 0, "fast": False, "metadata": {}, **fields})


class TestTheOneRecordBuilder:
    """``to_record()`` field by field, as the simulator always built them."""

    def completed(self, kind, requested, completion_kind, value, **metadata):
        return OperationHandle(
            client_id="w",
            kind=kind,
            requested_value=requested,
            invoked_at=1.0,
            completed_at=3.0,
            result=OperationComplete(7, completion_kind, value, 1, True, details=dict(metadata)),
            register_id="k",
        )

    def expect(self, kind, value, **metadata):
        return record(
            client_id="w", kind=kind, value=value, invoked_at=1.0, completed_at=3.0,
            rounds=1, fast=True, metadata={**metadata, "register_id": "k"},
        )  # fmt: skip

    def test_write_records_the_requested_value(self):
        handle = self.completed("write", "asked", "write", "echoed", ts=4)
        assert handle.to_record() == self.expect("write", "asked", ts=4)

    def test_read_records_the_returned_value(self):
        handle = self.completed("read", None, "read", "seen")
        assert handle.to_record() == self.expect("read", "seen")

    def test_successful_cas_is_a_write_of_the_new_value(self):
        handle = self.completed("cas", "new", "write", "new", cas=True)
        assert handle.to_record() == self.expect("write", "new", cas=True)

    def test_failed_cas_is_a_read_of_the_observed_value(self):
        handle = self.completed("cas", "new", "read", "other", cas=True, cas_failed=True)
        assert handle.to_record() == self.expect("read", "other", cas=True, cas_failed=True)

    def test_rmw_records_the_value_it_computed(self):
        handle = self.completed("rmw", None, "write", "computed", rmw=True)
        assert handle.to_record() == self.expect("write", "computed", rmw=True)

    def test_an_open_operation_is_a_record_without_a_completion(self):
        handle = OperationHandle("w", "write", "asked", invoked_at=1.0, scheduled_at=0.25)
        assert handle.to_record() == record(
            client_id="w", kind="write", value="asked", invoked_at=1.0, completed_at=None,
            metadata={"scheduled_at": 0.25, "queueing_delay": 0.75},
        )  # fmt: skip

    def test_the_record_owns_its_metadata_and_the_archive_name_wins(self):
        handle = self.completed("read", None, "read", "seen", register_id="k")
        handle.register_id = "k#1"  # what drop_register does
        built = handle.to_record()
        assert built.metadata["register_id"] == "k#1"
        assert handle.result.metadata == {"register_id": "k"}
