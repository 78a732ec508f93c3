"""Registry-invariant tests: what the process registers, checked exhaustively.

The codec once asserted at import time that every message type had a tag and
that the Message base header was unchanged.  ``register_struct`` still refuses
an out-of-range or reused struct tag at import; everything else is checked
here, against the classes the ``repro`` modules actually define: every
message class is tagged and listed, and every dataclass a message or a WAL
record can carry is a registered struct.
"""

import dataclasses
import importlib
import pkgutil
import sys
import typing

import repro
from repro.core.messages import (
    ALL_MESSAGE_TYPES,
    CLIENT_BOUND_MESSAGES,
    SERVER_BOUND_MESSAGES,
    Batch,
    Message,
)
from repro.core.types import (
    FreezeDirective,
    FrozenEntry,
    NewReadReport,
    TimestampValue,
)
from repro.persist.wal import WalRecord
from repro.wire.codec import MESSAGE_TAGS, TAG_ENVELOPE, TAG_VALUE
from repro.wire.values import _TAG_BY_STRUCT, encode_value


def message_classes():
    """Every ``Message`` subclass a ``repro`` module binds under its own name.

    ``@dataclass(slots=True)`` builds a new class and leaves the pre-slots one
    in ``Message.__subclasses__()``; only the rebuilt class is bound, so the
    name filter sees each message once.
    """
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = set(), [Message]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            module = sys.modules.get(cls.__module__)
            if cls.__module__.startswith("repro.") and getattr(module, cls.__name__, None) is cls:
                found.add(cls)
    return found


def wire_structs():
    """Every dataclass reachable through the type hints of a message or a WAL
    record (``Message`` itself, the payload type of a ``Batch``, excepted)."""
    found, stack = set(), [*message_classes(), WalRecord]
    while stack:
        hints = list(typing.get_type_hints(stack.pop()).values())
        while hints:
            hint = hints.pop()
            hints.extend(typing.get_args(hint))
            if (
                isinstance(hint, type)
                and dataclasses.is_dataclass(hint)
                and hint is not Message
                and hint not in found
            ):
                found.add(hint)
                stack.append(hint)
    return found


class TestMessageTagCoverage:
    def test_every_message_type_has_a_tag(self):
        classes = message_classes()
        assert set(ALL_MESSAGE_TYPES) <= classes
        assert sorted(cls.__name__ for cls in classes - set(MESSAGE_TAGS)) == []
        assert sorted(cls.__name__ for cls in classes - set(ALL_MESSAGE_TYPES)) == []

    def test_no_orphan_tags(self):
        # The registry must not keep tags for classes the protocol dropped.
        orphans = [cls.__name__ for cls in MESSAGE_TAGS if cls not in ALL_MESSAGE_TYPES]
        assert orphans == []

    def test_tags_unique(self):
        tags = list(MESSAGE_TAGS.values())
        assert len(tags) == len(set(tags))

    def test_tags_clear_of_reserved_frame_tags(self):
        assert TAG_VALUE not in MESSAGE_TAGS.values()
        assert TAG_ENVELOPE not in MESSAGE_TAGS.values()

    def test_base_header_fields_frozen(self):
        # The codec writes (sender, register_id, epoch) as the tagless common
        # header of every frame; changing the base dataclass without bumping
        # WIRE_VERSION would silently ship a new dialect.
        assert tuple(f.name for f in dataclasses.fields(Message)) == (
            "sender",
            "register_id",
            "epoch",
        )


class TestStructRegistry:
    def test_every_wire_crossing_struct_is_registered(self):
        structs = wire_structs()
        assert {TimestampValue, FrozenEntry, FreezeDirective, NewReadReport} <= structs
        assert sorted(cls.__name__ for cls in structs if cls not in _TAG_BY_STRUCT) == []

    def test_wire_crossing_structs_encode(self):
        for struct in (
            TimestampValue(1, "v", "w"),
            FrozenEntry(TimestampValue(1, "v", "w"), 2),
            FreezeDirective("r1", TimestampValue(1, "v", "w"), 2),
            NewReadReport("r1", 3),
            WalRecord("k1", "pw", 1, "w", "v"),
        ):
            assert encode_value(struct)


class TestDirectionGroups:
    def test_groups_partition_the_non_envelope_types(self):
        # The DISPATCH_IGNORES groups must cover every concrete type except
        # the Batch envelope, with no overlap — otherwise an automaton could
        # "ignore" its way past a real obligation.
        union = set(CLIENT_BOUND_MESSAGES) | set(SERVER_BOUND_MESSAGES)
        assert union == set(ALL_MESSAGE_TYPES) - {Batch}
        assert not set(CLIENT_BOUND_MESSAGES) & set(SERVER_BOUND_MESSAGES)
