"""Unit tests for the protocol message definitions."""

import dataclasses
import importlib
import pickle

import pytest

from repro.core.messages import (
    ALL_MESSAGE_TYPES,
    MESSAGE_TYPE_BY_NAME,
    BaselineQuery,
    PreWrite,
    PreWriteAck,
    Read,
    ReadAck,
    Write,
    WriteAck,
)
from repro.core.types import FreezeDirective, TimestampValue


class TestMessageBasics:
    def test_kind_matches_class_name(self):
        assert Read(sender="r1").kind == "Read"
        assert PreWrite(sender="w").kind == "PreWrite"

    def test_registry_covers_all_types(self):
        assert set(MESSAGE_TYPE_BY_NAME) == {cls.__name__ for cls in ALL_MESSAGE_TYPES}
        assert MESSAGE_TYPE_BY_NAME["ReadAck"] is ReadAck

    def test_messages_are_immutable(self):
        message = Read(sender="r1", read_ts=1, round=1)
        try:
            message.round = 2  # type: ignore[misc]
            mutated = True
        except Exception:
            mutated = False
        assert not mutated

    def test_messages_are_hashable_value_objects(self):
        a = WriteAck(sender="s1", round=2, ts=3)
        b = WriteAck(sender="s1", round=2, ts=3)
        assert a == b
        assert len({a, b}) == 1

    def test_messages_pickle_roundtrip(self):
        message = PreWrite(
            sender="w",
            ts=3,
            pw=TimestampValue(3, "v"),
            w=TimestampValue(2, "u"),
            frozen=(FreezeDirective("r1", TimestampValue(3, "v"), 4),),
        )
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message

    def test_defaults_are_sensible(self):
        ack = PreWriteAck(sender="s1")
        assert ack.newread == ()
        write = Write(sender="w")
        assert write.from_writer is True
        assert write.frozen == ()
        query = BaselineQuery(sender="r1")
        assert query.op_id == 0


class TestSlots:
    """Hot-path message objects are slotted: no per-instance ``__dict__``."""

    @pytest.mark.parametrize(
        "module",
        ["repro.core.messages", "repro.core.types", "repro.core.automaton", "repro.sim.events"],
    )
    def test_every_dataclass_in_the_hot_modules_declares_slots(self, module):
        # Messages, value pairs, effects and sim events are allocated once per
        # protocol step; a dataclass without slots=True gives each a __dict__.
        classes = [
            cls
            for cls in vars(importlib.import_module(module)).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module
        ]
        assert classes
        assert [cls.__name__ for cls in classes if "__slots__" not in vars(cls)] == []

    def test_no_dict_on_any_message_type(self):
        from repro.wire.golden import message_zoo

        for message in message_zoo():
            assert not hasattr(message, "__dict__"), type(message).__name__

    def test_no_dict_on_value_types(self):
        pairs = [
            TimestampValue(3, "v"),
            FreezeDirective("r1", TimestampValue(3, "v"), 4),
        ]
        for value in pairs:
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_every_zoo_message_pickles(self):
        # frozen+slots dataclass pickling needs the explicit state protocol
        # on Python 3.10 (SlotsPickleMixin); the whole zoo must round-trip.
        from repro.wire.golden import message_zoo

        for message in message_zoo():
            clone = pickle.loads(pickle.dumps(message))
            assert clone == message

    def test_unknown_attribute_assignment_rejected(self):
        message = Read(sender="r1")
        try:
            message.scratchpad = 1  # type: ignore[attr-defined]
            leaked = True
        except (AttributeError, TypeError):
            leaked = False
        assert not leaked
