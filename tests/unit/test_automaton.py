"""Unit tests for the sans-I/O automaton building blocks."""

import pytest

from repro.core.automaton import (
    Automaton,
    ClientAutomaton,
    Effects,
    OperationComplete,
    Send,
    StartTimer,
    completion_flags,
)
from repro.core.messages import Read


class TestEffects:
    def test_send_appends_envelope(self):
        effects = Effects()
        message = Read(sender="r1", read_ts=1, round=1)
        effects.send("s1", message)
        assert effects.sends == [Send("s1", message)]

    def test_broadcast_sends_to_every_destination(self):
        effects = Effects()
        message = Read(sender="r1", read_ts=1, round=1)
        effects.broadcast(["s1", "s2", "s3"], message)
        assert [send.destination for send in effects.sends] == ["s1", "s2", "s3"]

    def test_start_timer_recorded(self):
        effects = Effects()
        effects.start_timer("t1", 2.5)
        assert effects.timers == [StartTimer("t1", 2.5)]

    def test_complete_recorded(self):
        effects = Effects()
        completion = OperationComplete(op_id=1, kind="read", value="x", rounds=1, fast=True)
        effects.complete(completion)
        assert effects.completions == [completion]

    def test_merge_concatenates_all_effect_kinds(self):
        first = Effects()
        first.send("s1", Read(sender="r1"))
        second = Effects()
        second.start_timer("t", 1.0)
        second.complete(OperationComplete(op_id=1, kind="read", value=None, rounds=1, fast=True))
        merged = first.merge(second)
        assert merged is first
        assert len(merged.sends) == 1
        assert len(merged.timers) == 1
        assert len(merged.completions) == 1

    def test_empty_property(self):
        assert Effects().empty
        effects = Effects()
        effects.start_timer("t", 1.0)
        assert not effects.empty


class TestOperationComplete:
    def test_the_metadata_is_one_read_only_mapping_of_the_fields(self):
        completion = OperationComplete(
            1, "read", "v", 1, True, ts=3, writer_id="w1", register_id="k",
            flags=completion_flags(writeback=False, lease=True), details={"cas": True},
        )  # fmt: skip
        completion.latency_s = 0.5
        assert completion.metadata == {
            "ts": 3, "writeback": False, "lease": True, "writer_id": "w1",
            "cas": True, "register_id": "k", "latency_s": 0.5,
        }  # fmt: skip
        with pytest.raises(TypeError):
            completion.metadata["ts"] = 4

    def test_what_a_completion_lacks_is_not_in_its_metadata(self):
        assert OperationComplete(1, "write", "v", 1, True).metadata == {}
        assert OperationComplete(1, "read", "v", 1, True, ts=0).metadata == {"ts": 0}

    def test_completions_with_the_same_outcome_share_their_flags(self):
        first = completion_flags(read_rounds=1, writeback=False, is_bottom=False)
        assert completion_flags(read_rounds=1, writeback=False, is_bottom=False) is first
        assert completion_flags(read_rounds=2, writeback=True, is_bottom=False) != first


class TestAutomatonDefaults:
    def test_default_handlers_are_no_ops(self):
        automaton = Automaton("p1")
        assert automaton.handle_message(Read(sender="r1")).empty
        assert automaton.on_timer("anything").empty

    def test_describe_reports_process_id(self):
        assert Automaton("p1").describe() == {"process_id": "p1"}


class TestClientAutomaton:
    def test_operation_ids_are_monotonic(self):
        client = ClientAutomaton("c1")
        assert client._next_op_id() == 1
        assert client._next_op_id() == 2

    def test_double_invocation_is_rejected(self):
        client = ClientAutomaton("c1")
        client._operation_started()
        with pytest.raises(RuntimeError):
            client._operation_started()

    def test_finish_releases_the_client(self):
        client = ClientAutomaton("c1")
        client._operation_started()
        client._operation_finished()
        client._operation_started()
        assert client.busy

    def test_timer_ids_are_scoped_per_operation(self):
        client = ClientAutomaton("c1")
        assert client._timer_id(3, "pw") == "c1/op3/pw"
        assert client._timer_id(4, "pw") != client._timer_id(3, "pw")
