"""Unit tests for the protocol message definitions."""

import dataclasses
import importlib
import inspect
import pickle

import pytest

from repro.core.automaton import Effects, OperationComplete, Send, StartTimer
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
from repro.core.types import (
    FreezeDirective,
    FrozenEntry,
    NewReadReport,
    SlotsPickleMixin,
    TimestampValue,
    slot_init,
)
from repro.persist.wal import WalRecord
from repro.sim.events import DeliveryEvent, InvocationEvent, TimerEvent
from repro.wire.golden import message_zoo

#: The modules whose records are built once per protocol step.
HOT_MODULES = [
    "repro.core.messages",
    "repro.core.types",
    "repro.core.automaton",
    "repro.sim.events",
    "repro.persist.wal",
]


def hot_dataclasses(module):
    return [
        cls
        for cls in vars(importlib.import_module(module)).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module
    ]


def _noop():
    pass


PAIR = TimestampValue(3, "v", "w1")
#: One instance of every hot record, each message class by its zoo instance.
RECORDS = [
    *message_zoo(),
    PAIR,
    FrozenEntry(PAIR, 4),
    FreezeDirective("r1", PAIR, 4),
    NewReadReport("r1", 4),
    Send("s1", Read(sender="r1")),
    StartTimer("k::t", 1.5),
    OperationComplete(1, "read", "v", 1, True, 3, "w1", "k", 0.5, (("lease", True),)),
    Effects([Send("s1", Read(sender="r1"))], [StartTimer("t", 1.0)], [], ["t"]),
    DeliveryEvent("r1", "s1", Read(sender="r1")),
    TimerEvent("s1", "t"),
    InvocationEvent("op", _noop),
    WalRecord("k", "pw", 3, "w1", "v"),
]


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

    @pytest.mark.parametrize("module", HOT_MODULES)
    def test_every_dataclass_in_the_hot_modules_declares_slots(self, module):
        # Messages, value pairs, effects, sim events and WAL records are
        # allocated once per protocol step; a dataclass without slots=True
        # gives each a __dict__.
        classes = hot_dataclasses(module)
        assert classes
        assert [cls.__name__ for cls in classes if "__slots__" not in vars(cls)] == []

    @pytest.mark.parametrize("module", HOT_MODULES)
    def test_every_dataclass_in_the_hot_modules_is_built_by_slot_init(self, module):
        # A new record class that skips @slot_init keeps the dataclass
        # __init__, which stores each field through object.__setattr__.
        classes = hot_dataclasses(module)
        assert classes
        built = [cls.__name__ for cls in classes if hasattr(vars(cls)["__init__"], "__source__")]
        assert built == [cls.__name__ for cls in classes]

    def test_no_dict_on_any_message_type(self):
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


def _record_id(record):
    return type(record).__name__


class TestSlotInit:
    """``@slot_init`` rebuilds ``__init__`` without changing what it accepts."""

    @pytest.mark.parametrize("record", RECORDS, ids=_record_id)
    def test_positional_and_keyword_construction_agree(self, record):
        cls = type(record)
        values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
        assert cls(*values.values()) == record
        assert cls(**values) == record

    @pytest.mark.parametrize("record", RECORDS, ids=_record_id)
    def test_signature_is_the_one_the_fields_imply(self, record):
        cls = type(record)
        params = inspect.signature(cls).parameters.values()
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, f in zip(params, fields, strict=True):
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            if f.default is not dataclasses.MISSING:
                assert param.default is f.default
            elif f.default_factory is not dataclasses.MISSING:
                assert param.default is not param.empty
            else:
                assert param.default is param.empty

    def test_factories_are_fresh_per_instance(self):
        first, second = Effects(), Effects()
        for f in dataclasses.fields(Effects):
            assert getattr(first, f.name) == []
            assert getattr(first, f.name) is not getattr(second, f.name)

    def test_any_other_factory_is_called(self):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True)
        class Tagged:
            tags: frozenset = dataclasses.field(default_factory=lambda: frozenset({"k"}))

        assert "_make_tags()" in Tagged.__init__.__source__
        assert Tagged().tags == {"k"} and Tagged({"j"}).tags == {"j"}

    def test_post_init_still_runs(self):
        with pytest.raises(ValueError):
            WalRecord("k", "xx", 1, "", "v")

    @pytest.mark.parametrize(
        "record",
        [r for r in RECORDS if type(r).__dataclass_params__.frozen],
        ids=_record_id,
    )
    def test_fields_stay_frozen(self, record):
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))

    @pytest.mark.parametrize("record", RECORDS, ids=_record_id)
    def test_replace_round_trips(self, record):
        assert dataclasses.replace(record) == record

    @pytest.mark.parametrize(
        "record", [r for r in RECORDS if isinstance(r, SlotsPickleMixin)], ids=_record_id
    )
    def test_pickle_round_trips(self, record):
        assert pickle.loads(pickle.dumps(record)) == record

    @pytest.mark.parametrize(
        "spec",
        [
            {"init": False, "default": 0},
            {"kw_only": True, "default": 0},
        ],
        ids=["init=False", "kw_only=True"],
    )
    def test_refuses_fields_it_cannot_build(self, spec):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Odd:
            a: int
            b: int = dataclasses.field(**spec)

        with pytest.raises(TypeError):
            slot_init(Odd)

    def test_refuses_an_initvar(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Odd:
            a: int
            b: dataclasses.InitVar[int] = 0

        with pytest.raises(TypeError):
            slot_init(Odd)
