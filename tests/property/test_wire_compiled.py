"""The generated readers and writers equal the interpreter they replaced.

Every message class and every registered struct is read and written by code
generated from its dataclass fields (:func:`repro.wire.codec._compile_message`,
:func:`repro.wire.values.register_struct`).  The reference here is what the
codec did before: a loop over the fields that pushes each through the generic
``write_value`` / ``read_value`` — with the struct tables swapped for the same
loop (:func:`interpreter_only`), so no generated code runs on the reference
side.  The space is small enough to cover the way an algorithm is checked
against its specification: every class, every golden vector, field values on
*and* off the declared schema, every strict prefix and every single-byte
mutation of the published bytes.  The generated *sizers* are held to the
same standard: the size the codec computes for a frame is the length of the
bytes it would encode, and it refuses exactly what the encoder refuses.
"""

import contextlib
import dataclasses
import json
import os
import typing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Batch, Message
from repro.core.types import BOTTOM, TimestampValue
from repro.persist.wal import WAL_FIELDS, WalRecord, unframe_payload
from repro.wire import values as wire_values
from repro.wire.codec import (
    LENGTH_PREFIX_BYTES,
    MAGIC,
    MESSAGE_TAGS,
    TAG_VALUE,
    WIRE_VERSION,
    decode_envelope,
    decode_message,
    encode_envelope,
    encode_message,
    get_codec,
    size_of,
)
from repro.wire.golden import message_zoo, wal_segment_records
from repro.wire.values import (
    MAX_NESTING,
    WireDecodeError,
    WireEncodeError,
    WireFormatError,
    decode_value,
    encode_value,
    read_str,
    read_uvarint,
    read_value,
    size_value,
    write_str,
    write_uvarint,
    write_value,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "wire_golden_vectors.json")
HEADER = MAGIC + bytes([WIRE_VERSION])
CLASS_BY_TAG = {tag: cls for cls, tag in MESSAGE_TAGS.items()}
STRUCTS = dict(wire_values._TAG_BY_STRUCT)  # class -> tag, WalRecord included


# ------------------------------------------------------------- the reference


@contextlib.contextmanager
def interpreter_only():
    """Swap every generated struct codec (and sizer) for the field loop it
    replaced."""

    def writer(cls, tag):
        def write(out, value, depth):
            out.append(tag)
            for field in dataclasses.fields(cls):
                write_value(out, getattr(value, field.name), depth)

        return write

    def reader(cls):
        def read(data, offset, depth):
            fields = []
            for _ in dataclasses.fields(cls):
                value, offset = read_value(data, offset, depth)
                fields.append(value)
            try:
                return cls(*fields), offset
            except ValueError as exc:  # WalRecord validates its field name
                raise WireDecodeError(str(exc)) from None

        return read

    def sizer(cls):
        def size(value, depth):
            fields = dataclasses.fields(cls)
            return 1 + sum(size_value(getattr(value, f.name), depth) for f in fields)

        return size

    writers = {cls: writer(cls, tag) for cls, tag in STRUCTS.items()}
    readers = {tag: reader(cls) for cls, tag in STRUCTS.items()}
    sizers = {cls: sizer(cls) for cls in STRUCTS}
    with mock.patch.dict(wire_values._STRUCT_WRITERS, writers):
        with mock.patch.dict(wire_values._STRUCT_READERS, readers):
            with mock.patch.dict(wire_values._STRUCT_SIZERS, sizers):
                yield


def reference_encode(message: Message) -> bytes:
    out = bytearray(HEADER)
    out.append(MESSAGE_TAGS[type(message)])
    write_str(out, message.sender)
    write_str(out, message.register_id)
    write_uvarint(out, message.epoch)
    if isinstance(message, Batch):
        write_uvarint(out, len(message.messages))
        return bytes(out) + b"".join(reference_encode(inner) for inner in message.messages)
    for field in dataclasses.fields(message)[3:]:
        write_value(out, getattr(message, field.name))
    return bytes(out)


def reference_read(data: bytes, offset: int, inside_batch: bool = False):
    if len(data) < offset + 4 or data[offset : offset + 3] != HEADER:
        raise WireDecodeError("bad header")
    cls = CLASS_BY_TAG.get(data[offset + 3])
    if cls is None or (inside_batch and cls is Batch):
        raise WireDecodeError("bad tag")
    sender, offset = read_str(data, offset + 4)
    register_id, offset = read_str(data, offset)
    epoch, offset = read_uvarint(data, offset)
    values = []
    if cls is Batch:
        count, offset = read_uvarint(data, offset)
        for _ in range(count):
            inner, offset = reference_read(data, offset, inside_batch=True)
            values.append(inner)
        values = [tuple(values)]
    else:
        for _ in dataclasses.fields(cls)[3:]:
            value, offset = read_value(data, offset)
            values.append(value)
    return cls(sender, register_id, epoch, *values), offset


def reference_decode(data: bytes) -> Message:
    message, end = reference_read(data, 0)
    if end != len(data):
        raise WireDecodeError("trailing bytes")
    return message


def outcome(decode, data):
    """What *decode* makes of *data*: the value, or the refusal.  Anything but
    a ``WireDecodeError`` propagates and fails the test."""
    try:
        return decode(data)
    except WireDecodeError:
        return WireDecodeError


def _attempt(compute):
    try:
        return compute()
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


def frame_outcomes(source, destination, message):
    """``(computed, encoded)``: what ``frame_size`` says, and the length the
    encoder produces — or, for each, the type of exception it raised."""
    codec = get_codec(None)
    computed = _attempt(lambda: codec.frame_size(source, destination, message))
    encoded = _attempt(
        lambda: LENGTH_PREFIX_BYTES + len(encode_envelope(source, destination, message))
    )
    return computed, encoded


# ------------------------------------------------------------ the strategies

_ints = st.one_of(
    st.integers(0, 63),
    st.sampled_from([64, 127, 128, 300, 2**63, 2**63 - 1, -1, -64, -65, -(2**63)]),
    st.integers(),
)
_texts = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="aé⊥漢", max_size=6),
    st.text(alphabet="xé", min_size=128, max_size=140),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(allow_nan=False),
    _texts,
    st.binary(max_size=140),
    st.just(BOTTOM),
)
_anything = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=6,
)


def _declared(hint):
    """Values of the declared type *hint* (a struct: built field by field)."""
    if hint is int:
        return _ints
    if hint is float:
        return st.floats(allow_nan=False)
    if hint is bool:
        return st.booleans()
    if hint is str:
        return _texts
    if typing.get_origin(hint) is tuple:
        return st.lists(_field(typing.get_args(hint)[0]), max_size=3).map(tuple)
    if hint in STRUCTS:
        return struct_values(hint)
    return _anything


def _field(hint):
    """On the schema most of the time, anything at all otherwise — what a
    Byzantine sender (or a caller with a loose grip on types) puts there."""
    return st.one_of(_declared(hint), _declared(hint), _anything)


def struct_values(cls):
    fields = {name: _field(hint) for name, hint in wire_values.struct_fields(cls)}
    if cls is WalRecord:
        fields["field"] = st.sampled_from(WAL_FIELDS)  # the constructor insists
    return st.builds(cls, **fields)


def message_values(cls):
    header = {
        "sender": _texts,
        "register_id": _texts,
        "epoch": st.one_of(st.integers(0, 127), st.integers(128, 2**40)),
    }
    if cls is Batch:
        flat = st.sampled_from([c for c in MESSAGE_TAGS if c is not Batch]).flatmap(message_values)
        return st.builds(Batch, messages=st.lists(flat, max_size=4).map(tuple), **header)
    fields = {name: _field(hint) for name, hint in wire_values.struct_fields(cls)[3:]}
    return st.builds(cls, **header, **fields)


# ------------------------------------------------ equal bytes, equal messages


@pytest.mark.parametrize("cls", list(MESSAGE_TAGS), ids=lambda cls: cls.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_message_bytes_equal_the_reference(cls, data):
    message = data.draw(message_values(cls))
    source = data.draw(_texts)
    encoded = encode_message(message)
    with interpreter_only():
        assert encoded == reference_encode(message)
        assert reference_decode(encoded) == message
    decoded = decode_message(encoded)
    assert decoded == message
    assert type(decoded) is cls
    envelope = get_codec(None).encode_envelope(source, "d", message)
    assert decode_envelope(envelope) == (source, "d", message)
    # The size the codec computes is the length of what it encodes.
    assert size_of(message) == len(encoded)
    assert frame_outcomes(source, "d", message) == (LENGTH_PREFIX_BYTES + len(envelope),) * 2


@pytest.mark.parametrize("cls", list(STRUCTS), ids=lambda cls: cls.__name__)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_struct_bytes_equal_the_reference(cls, data):
    value = data.draw(struct_values(cls))
    encoded = encode_value(value)
    with interpreter_only():
        assert encoded == encode_value(value)
        assert decode_value(encoded) == value
    assert decode_value(encoded) == value
    # Reached from a container too: the table lookup, not the inlined copy.
    outer = [value, {"k": value}]
    assert decode_value(encode_value(outer)) == outer
    for sized in (value, outer):
        assert size_value(sized) == len(encode_value(sized))
        with interpreter_only():
            assert size_value(sized) == len(encode_value(sized))


def test_generated_source_is_kept_on_the_function():
    from repro.wire.codec import _READERS, _SIZERS, _WRITERS

    for cls, tag in MESSAGE_TAGS.items():
        if cls is not Batch:
            assert f"def read_{cls.__name__}(" in _READERS[tag].__source__
            assert f"def write_{cls.__name__}(" in _WRITERS[cls].__source__
            assert f"def size_{cls.__name__}(" in _SIZERS[cls].__source__
    for cls, tag in STRUCTS.items():
        assert f"def read_{cls.__name__}(" in wire_values._STRUCT_READERS[tag].__source__
        assert f"def size_{cls.__name__}(" in wire_values._STRUCT_SIZERS[cls].__source__


# ----------------------------------- every golden vector, truncated and bent


def _golden():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        fixture = json.load(fh)
    frames = {name: bytes.fromhex(hexed) for name, hexed in fixture["messages"].items()}
    segment, offset, payloads = bytes.fromhex(fixture["wal_segment"]), 0, []
    while offset < len(segment):
        payload, offset = unframe_payload(segment, offset)
        payloads.append(payload)
    return frames, bytes.fromhex(fixture["envelope"]), payloads


def _bent(frame: bytes):
    """Every strict prefix and every single-byte mutation of *frame*."""
    for length in range(len(frame)):
        yield frame[:length]
    for index in range(len(frame)):
        for byte in range(256):
            if byte != frame[index]:
                yield frame[:index] + bytes([byte]) + frame[index + 1 :]


GOLDEN_FRAMES, GOLDEN_ENVELOPE, GOLDEN_WAL_PAYLOADS = _golden()


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_bent_golden_messages_decode_like_the_reference(name):
    frame = GOLDEN_FRAMES[name]
    assert decode_message(frame) == reference_decode(frame)
    for bent in _bent(frame):
        got = outcome(decode_message, bent)
        with interpreter_only():
            assert got == outcome(reference_decode, bent), bent.hex()
        if len(bent) < len(frame):
            assert got is WireDecodeError, bent.hex()  # a strict prefix is never a message


def test_bent_golden_envelope_raises_only_wire_errors():
    assert decode_envelope(GOLDEN_ENVELOPE)[2] == message_zoo()[6]
    for bent in _bent(GOLDEN_ENVELOPE):
        got = outcome(decode_envelope, bent)
        if len(bent) < len(GOLDEN_ENVELOPE):
            assert got is WireDecodeError, bent.hex()


def test_bent_golden_wal_records_decode_like_the_reference():
    codec = get_codec(None)
    assert [codec.decode_value(p) for p in GOLDEN_WAL_PAYLOADS] == wal_segment_records()
    for payload in GOLDEN_WAL_PAYLOADS:
        assert payload[:4] == HEADER + bytes([TAG_VALUE])
        for bent in _bent(payload):
            got = outcome(codec.decode_value, bent)
            with interpreter_only():
                assert got == outcome(codec.decode_value, bent), bent.hex()


def _flatten(value):
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _flatten(getattr(value, field.name))


def test_a_reader_never_returns_an_offset_past_the_buffer():
    # decode_* would still refuse (its trailing-bytes check), but read_value's
    # contract is an end offset inside the buffer: a short buffer is an error
    # where it is short, not a short string and an offset beyond the end.
    samples = [
        value
        for root in [*message_zoo(), *wal_segment_records()]
        for value in _flatten(root)
        if type(value) in STRUCTS
    ]
    assert {type(sample) for sample in samples} == set(STRUCTS)
    for sample in samples:
        encoded = encode_value(sample)
        assert read_value(encoded, 0) == (sample, len(encoded))
        for length in range(len(encoded)):
            with pytest.raises(WireDecodeError):
                read_value(encoded[:length], 0)


# ------------------------------------------- hostile bytes cost a frame only


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(max_size=64),
    head=st.sampled_from([b"", HEADER, HEADER + b"\x1f", HEADER + b"\x1e"]),
)
def test_arbitrary_bytes_raise_only_wire_errors(data, head):
    codec = get_codec(None)
    for decode in (decode_envelope, decode_message, codec.decode_value, decode_value):
        try:
            decode(head + data)
        except WireFormatError:
            pass


def test_the_three_escapes_are_decode_errors():
    with pytest.raises(WireDecodeError, match="unhashable"):
        decode_value(bytes([0x0A, 1, 0x09, 0, 0x00]))  # {[]: None}
    with pytest.raises(WireDecodeError, match="nested"):
        decode_value(bytes([0x08, 1]) * 5000 + b"\x00")
    with pytest.raises(WireDecodeError, match="nested"):
        decode_value(bytes([0x10, 0x03, 0x00]) * 5000)  # a pair whose value is a pair ...
    # (3000 nested Batch frames: tests/unit/test_wire_codec.py, next to the framing test)


def test_the_nesting_limit_is_exact_and_symmetric():
    def nested(levels):
        value = "leaf"
        for _ in range(levels):
            value = [value]
        return value

    assert decode_value(encode_value(nested(MAX_NESTING))) == nested(MAX_NESTING)
    with pytest.raises(WireEncodeError, match="nested"):
        encode_value(nested(MAX_NESTING + 1))
    too_deep = bytes([0x09, 1]) * (MAX_NESTING + 1) + encode_value("leaf")
    with pytest.raises(WireDecodeError, match="nested"):
        decode_value(too_deep)
    # Structs count like any container, inlined or reached through the table.
    pair_tag = STRUCTS[type(message_zoo()[0].pw)]
    inside = bytes([0x09, 1]) * MAX_NESTING + bytes([pair_tag]) + b"\x03\x00\x07\x05\x00"
    with pytest.raises(WireDecodeError, match="nested"):
        decode_value(inside)
    with interpreter_only():
        with pytest.raises(WireDecodeError, match="nested"):
            decode_value(inside)


# --------------------------------------- a computed size is an encoded length


def _nested(levels, leaf):
    for _ in range(levels):
        leaf = [leaf]
    return leaf


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_golden_frames_size_to_their_length(name):
    frame = GOLDEN_FRAMES[name]
    message = decode_message(frame)
    assert size_of(message) == len(frame)
    computed, encoded = frame_outcomes("s1", "r1", message)
    assert type(computed) is int and computed == encoded


def test_the_golden_envelope_and_wal_records_size_to_their_length():
    source, destination, message = decode_envelope(GOLDEN_ENVELOPE)
    computed, _ = frame_outcomes(source, destination, message)
    assert computed == LENGTH_PREFIX_BYTES + len(GOLDEN_ENVELOPE)
    for payload, record in zip(GOLDEN_WAL_PAYLOADS, wal_segment_records(), strict=True):
        assert size_value(record) == len(payload) - len(HEADER) - 1


def _edges():
    """Each shape just off the inline one: past 127 bytes or characters,
    non-ASCII, negative and multi-byte ints, nesting at the limit, a Batch
    inside a Batch (refused at decode, written all the same)."""
    read, read_ack, pre_write = message_zoo()[6], message_zoo()[7], message_zoo()[0]
    pair = read_ack.pw
    long_ascii, wide = "x" * 128, "é" * 64  # 64 characters, 128 bytes
    yield dataclasses.replace(read, sender=long_ascii, register_id=wide, epoch=128)
    yield dataclasses.replace(read, sender="漢", register_id="x" * 127, epoch=2**40)
    for number in (-1, -64, 64, 127, 128, 2**63, -(2**63), 2**200, True):
        yield dataclasses.replace(read, read_ts=number, round=number)
    for text in ("", "x" * 127, long_ascii, wide, "é", "⊥" * 43):
        yield dataclasses.replace(read_ack, pw=dataclasses.replace(pair, val=text, writer_id=text))
    yield dataclasses.replace(read_ack, w=TimestampValue(2**70, b"\x00" * 200, "w"))
    yield dataclasses.replace(pre_write, frozen=_nested(MAX_NESTING, "leaf"))
    yield dataclasses.replace(pre_write, frozen=_nested(MAX_NESTING - 1, pair))
    inner = Batch("w", "k", 3, (read, dataclasses.replace(read_ack, sender=wide)))
    yield Batch(long_ascii, "k", 300, (inner, read, inner))
    yield Batch("w", "k", 0, ())


@pytest.mark.parametrize("message", list(_edges()), ids=lambda m: type(m).__name__)
def test_off_shape_frames_size_to_their_length(message):
    for source, destination in (("s1", "r1"), ("x" * 200, "⊥")):
        computed, encoded = frame_outcomes(source, destination, message)
        assert type(computed) is int and computed == encoded


class _Untagged(Message):
    """A message class that was never given a wire tag."""


_POISONS = [
    object(),
    "\ud800",  # a lone surrogate: no UTF-8 spelling
    ["ok", "\udfff"],
    {"k": object()},
    _nested(MAX_NESTING + 1, "leaf"),
    _nested(MAX_NESTING, TimestampValue(1, "v", "w")),  # the struct is one level too deep
    TimestampValue(1, "\udc00", "w"),
    TimestampValue(object(), "v", "w"),
    _Untagged("w", "k", 0),
    1.5,
]


@pytest.mark.parametrize("cls", list(MESSAGE_TAGS), ids=lambda cls: cls.__name__)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_an_unencodable_frame_raises_what_the_encoder_raises(cls, data):
    message = data.draw(message_values(cls))
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    poisoned = dataclasses.replace(message, **{name: data.draw(st.sampled_from(_POISONS))})
    computed, encoded = frame_outcomes("s1", "r1", poisoned)
    assert computed == encoded


@pytest.mark.parametrize(
    "source, message, refusal",
    [
        ("\ud800", message_zoo()[6], UnicodeEncodeError),
        ("s1", _Untagged("w", "k", 0), WireEncodeError),
        ("s1", Batch("w", "k", 0, (message_zoo()[6], _Untagged("w", "k", 0))), WireEncodeError),
        ("s1", dataclasses.replace(message_zoo()[6], round=_nested(40, 1)), WireEncodeError),
    ],
    ids=["surrogate-source", "untagged", "untagged-in-batch", "too-deep"],
)
def test_the_refusals_are_the_encoders(source, message, refusal):
    assert frame_outcomes(source, "r1", message) == (refusal, refusal)
