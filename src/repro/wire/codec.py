"""The versioned binary message codec.

Frame layout
------------
Every encoded message starts with a four-byte header::

    +--------+--------+---------+---------+----------------------------+
    | 'L'    | 'W'    | version | tag     | type-specific field bytes  |
    +--------+--------+---------+---------+----------------------------+
      magic (2 bytes)   1 byte    1 byte

The *tag* names the message type (one permanent number per class in
:mod:`repro.core.messages`); the fields follow in dataclass declaration order,
each encoded with the self-describing value encoding of
:mod:`repro.wire.values` — except strings of the common header fields
(``sender``, ``register_id``), which are written tagless (uvarint length +
UTF-8), and :class:`~repro.core.messages.Batch`, whose inner messages are
*complete frames*: a uvarint count followed by encoded messages, header and
all, so a gateway can re-split a batch without understanding every inner
type.  The batch is flat — a batch inside a batch is refused at decode.

A transport *envelope* (tag :data:`TAG_ENVELOPE`) wraps a routed message:
``source`` and ``destination`` strings followed by one encoded message.

Unknown magic, an unknown version, or an unknown tag raise the explicit
errors :class:`WireDecodeError`, :class:`UnknownVersionError` and
:class:`UnknownTagError` — never a silent misparse, and whatever the bytes,
never an exception outside the :class:`WireDecodeError` family.

Each message class is read, written and sized by functions generated from
its dataclass fields when this module is imported (:func:`_compile_message`);
the generated source is on each function as ``__source__``.  A frame's size
(:func:`frame_size`, what every byte counter charges) is *computed* by
the sizer — arithmetic over the fields' lengths — not encoded and measured.

Every layer calls the module functions — envelopes and :func:`frame_size` on
a link, the versioned value payload (:func:`encode_payload`) in the WAL and
the snapshots.  :class:`Codec` wraps them as methods for the transports, the
one place a subclass can change or time the bytes.  Binary is the only
format: nothing writes or reads pickle frames, on the wire or on disk.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..core.messages import (
    BaselineQuery,
    BaselineQueryReply,
    BaselineStore,
    BaselineStoreAck,
    Batch,
    LeaseGrant,
    LeaseRenew,
    LeaseRevoke,
    LeaseRevokeAck,
    Message,
    PreWrite,
    PreWriteAck,
    Read,
    ReadAck,
    TimestampQuery,
    TimestampQueryAck,
    Write,
    WriteAck,
    WriterLeaseGrant,
    WriterLeaseRenew,
    WriterLeaseRevoke,
    WriterLeaseRevokeAck,
)
from .values import (
    T_DICT,
    WireDecodeError,
    WireEncodeError,
    WireFormatError,
    compile_function,
    emit,
    emit_read,
    emit_size,
    emit_write,
    read_str,
    read_uvarint,
    read_value,
    str_size,
    struct_fields,
    uvarint_size,
    write_str,
    write_uvarint,
    write_value,
)

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "TAG_ENVELOPE",
    "MESSAGE_TAGS",
    "Codec",
    "UnknownTagError",
    "UnknownVersionError",
    "WireDecodeError",
    "WireEncodeError",
    "WireFormatError",
    "decode_envelope",
    "decode_message",
    "decode_payload",
    "encode_dict_item",
    "encode_envelope",
    "encode_envelope_into",
    "encode_message",
    "encode_payload",
    "frame_size",
    "get_codec",
    "join_dict_items",
]

#: Two magic bytes opening every binary frame ('L'ucky 'W'ire); the WAL and
#: snapshot readers refuse a payload without them.
MAGIC = b"LW"

#: Version byte of the wire format.  Any change to the byte layout — new
#: message fields, renumbered tags, different value encodings — must bump
#: this, and the golden-vector suite fails if the bytes drift without a bump.
WIRE_VERSION = 1

#: Message type tags.  Permanent: never renumber, never reuse.
MESSAGE_TAGS: Dict[Type[Message], int] = {
    PreWrite: 1,
    PreWriteAck: 2,
    Write: 3,
    WriteAck: 4,
    TimestampQuery: 5,
    TimestampQueryAck: 6,
    Read: 7,
    ReadAck: 8,
    LeaseRenew: 9,
    LeaseGrant: 10,
    LeaseRevoke: 11,
    LeaseRevokeAck: 12,
    Batch: 13,
    BaselineQuery: 14,
    BaselineQueryReply: 15,
    BaselineStore: 16,
    BaselineStoreAck: 17,
    WriterLeaseRenew: 18,
    WriterLeaseGrant: 19,
    WriterLeaseRevoke: 20,
    WriterLeaseRevokeAck: 21,
}

#: Tag of the transport envelope (source + destination + message).
TAG_ENVELOPE = 31

# Registry invariants — every message type tagged, tags unique, the Message
# base header frozen at (sender, register_id, epoch) — are enforced by
# tests/unit/test_wire_registry.py rather than import-time asserts.


class UnknownVersionError(WireDecodeError):
    """A frame from a future (or alien) wire-format version."""


class UnknownTagError(WireDecodeError):
    """A frame whose type tag this build does not know."""


#: What every frame of this build opens with, before its tag byte.
_PREFIX = MAGIC + bytes([WIRE_VERSION])


def _write_header(out: bytearray, tag: int) -> None:
    out += _PREFIX
    out.append(tag)


def _read_header(data: bytes, offset: int) -> Tuple[int, int]:
    """Check magic + version at *offset*; return ``(tag, body_offset)``."""
    if offset + 4 > len(data):
        raise WireDecodeError("truncated wire header")
    if data[offset : offset + 2] != MAGIC:
        raise WireDecodeError(
            f"bad magic {data[offset : offset + 2]!r} (not a binary wire frame; "
            "a 0x80 first byte would be a legacy pickle payload)"
        )
    version = data[offset + 2]
    if version != WIRE_VERSION:
        raise UnknownVersionError(
            f"wire version {version} is not supported (this build speaks "
            f"version {WIRE_VERSION})"
        )
    return data[offset + 3], offset + 4


#: ``(data, offset past the header) -> (message, end_offset)``, ``(out,
#: message)`` and ``message -> bytes the writer appends``: one generated
#: triple per class, from the templates below for the tagless fields every
#: message opens with and the value compiler for the rest.
MessageReader = Callable[[bytes, int], Tuple[Message, int]]
MessageWriter = Callable[[bytearray, Any], None]
MessageSizer = Callable[[Any], int]

_READ_ID = """\
if (z := data[o]) < 128:
    if (e := o + 1 + z) > end: raise WireDecodeError('truncated string')
    {v} = data[o + 1:e].decode(); o = e
else:
    {v}, o = read_str(data, o)"""
_READ_EPOCH = """\
if (epoch := data[o]) < 128: o += 1
else: epoch, o = read_uvarint(data, o)"""
_WRITE_ID = """\
if len(raw := m.{v}.encode()) < 128: out.append(len(raw)); out += raw
else: write_str(out, m.{v})"""
_WRITE_EPOCH = """\
if 0 <= (epoch := m.epoch) < 128: out.append(epoch)
else: write_uvarint(out, epoch)"""
#: The sizer's header: each string and the epoch counted at one byte of
#: length or value, plus what the value has beyond that.
_SIZE_ID = """\
if type(s := m.{v}) is str and s.isascii() and len(s) < 128: n += len(s)
else: n += str_size(s) - 1"""
_SIZE_EPOCH = """\
if not (type(epoch := m.epoch) is int and 0 <= epoch < 128): n += uvarint_size(epoch) - 1"""


def _compile_message(
    cls: Type[Message], tag: int
) -> Tuple[MessageReader, MessageWriter, MessageSizer]:
    """Generate the reader, the writer and the sizer of *cls*: the tagless
    header, then each field past it as the value compiler emits it (inline
    where it has its declared shape, through the interpreter where not)."""
    fields = struct_fields(cls)[3:]
    read: List[str] = []
    write = [f"    out += {_PREFIX + bytes([tag])!r}"]
    size: List[str] = []
    for header_field in ("sender", "register_id"):
        emit(read, " " * 8, _READ_ID.format(v=header_field))
        emit(write, "    ", _WRITE_ID.format(v=header_field))
        emit(size, "    ", _SIZE_ID.format(v=header_field))
    emit(read, " " * 8, _READ_EPOCH)
    emit(write, "    ", _WRITE_EPOCH)
    emit(size, "    ", _SIZE_EPOCH)
    values = [emit_read(read, " " * 8, hint, "0") for _, hint in fields]
    read.append(f"        return cls(sender, register_id, epoch, {', '.join(values)}), o")
    usual = len(_PREFIX) + 1 + 3  # the header, two string lengths, the epoch
    for name, hint in fields:
        emit_write(write, "    ", f"m.{name}", hint, "0")
        usual += emit_size(size, "    ", f"m.{name}", hint, "0")
    size = [f"    n = {usual}", *size, "    return n"]
    reader = compile_function(f"read_{cls.__name__}", "data, o", read, True, cls=cls)
    writer = compile_function(f"write_{cls.__name__}", "out, m", write)
    sizer = compile_function(f"size_{cls.__name__}", "m", size)
    return reader, writer, sizer


def _read_batch(data: bytes, offset: int) -> Tuple[Message, int]:
    """The one hand-written shape: a count, then complete frames.  Flat — a
    batch inside a batch is refused, so hostile nesting cannot recurse."""
    sender, offset = read_str(data, offset)
    register_id, offset = read_str(data, offset)
    epoch, offset = read_uvarint(data, offset)
    count, offset = read_uvarint(data, offset)
    end = len(data)
    inner = []
    for _ in range(count):
        if data[offset : offset + 3] != _PREFIX or offset + 4 > end:
            _read_header(data, offset)  # raises, saying which of the three it was
        tag = data[offset + 3]
        if tag == _TAG_BATCH:
            raise WireDecodeError("a batch inside a batch: the envelope is flat")
        message, offset = _reader_for(tag)(data, offset + 4)
        inner.append(message)
    return Batch(sender, register_id, epoch, tuple(inner)), offset


def _write_batch(out: bytearray, batch: Batch) -> None:
    _write_header(out, _TAG_BATCH)
    write_str(out, batch.sender)
    write_str(out, batch.register_id)
    write_uvarint(out, batch.epoch)
    write_uvarint(out, len(batch.messages))
    for inner in batch.messages:
        _write_message(out, inner)


def _size_batch(batch: Batch) -> int:
    messages = batch.messages
    size = len(_PREFIX) + 1 + str_size(batch.sender) + str_size(batch.register_id)
    size += uvarint_size(batch.epoch) + uvarint_size(len(messages))
    for inner in messages:
        sizer = _SIZERS.get(type(inner))
        if sizer is None:
            raise _no_tag(inner)
        size += sizer(inner)
    return size


_TAG_BATCH = MESSAGE_TAGS[Batch]
_READERS: Dict[int, MessageReader] = {_TAG_BATCH: _read_batch}
_WRITERS: Dict[Type[Message], MessageWriter] = {Batch: _write_batch}
_SIZERS: Dict[Type[Message], MessageSizer] = {Batch: _size_batch}
for _cls, _tag in MESSAGE_TAGS.items():
    if _cls is not Batch:
        _READERS[_tag], _WRITERS[_cls], _SIZERS[_cls] = _compile_message(_cls, _tag)


def _reader_for(tag: int) -> MessageReader:
    reader = _READERS.get(tag)
    if reader is None:
        raise UnknownTagError(f"unknown message tag {tag}")
    return reader


def _write_message(out: bytearray, message: Message) -> None:
    writer = _WRITERS.get(type(message))
    if writer is None:
        raise _no_tag(message)
    writer(out, message)


def size_of(message: Message) -> int:
    """Bytes :func:`encode_message` would produce for *message*, computed
    without encoding it; raises where the encoder raises."""
    sizer = _SIZERS.get(type(message))
    if sizer is None:
        raise _no_tag(message)
    return sizer(message)


def _no_tag(message: Message) -> WireEncodeError:
    return WireEncodeError(
        f"{type(message).__name__} has no wire tag; register it in "
        "repro.wire.codec.MESSAGE_TAGS (and bump WIRE_VERSION)"
    )


def _read_message(data: bytes, offset: int) -> Tuple[Message, int]:
    tag, offset = _read_header(data, offset)
    return _reader_for(tag)(data, offset)


def encode_message(message: Message) -> bytes:
    """The complete binary frame body of *message* (header + fields)."""
    out = bytearray()
    _write_message(out, message)
    return bytes(out)


def decode_message(data: bytes) -> Message:
    """Decode one message frame, requiring the whole buffer to be consumed."""
    message, end = _read_message(data, 0)
    if end != len(data):
        raise WireDecodeError(f"{len(data) - end} trailing bytes after message")
    return message


def encode_envelope(source: str, destination: str, message: Message) -> bytes:
    """One routed transport payload: header + source + destination + message."""
    out = bytearray()
    encode_envelope_into(out, source, destination, message)
    return bytes(out)


def encode_envelope_into(out: bytearray, source: str, destination: str, message: Message) -> None:
    """Append the routed transport payload of *message* to *out* (zero-copy)."""
    _write_header(out, TAG_ENVELOPE)
    write_str(out, source)
    write_str(out, destination)
    _write_message(out, message)


def decode_envelope(data: bytes) -> Tuple[str, str, Message]:
    """Decode a transport payload into ``(source, destination, message)``."""
    tag, offset = _read_header(data, 0)
    if tag != TAG_ENVELOPE:
        raise WireDecodeError(
            f"expected an envelope (tag {TAG_ENVELOPE}), got tag {tag}"
        )
    source, offset = read_str(data, offset)
    destination, offset = read_str(data, offset)
    message, end = _read_message(data, offset)
    if end != len(data):
        raise WireDecodeError(f"{len(data) - end} trailing bytes after envelope")
    return source, destination, message


# --------------------------------------------------------------------------- #
# Frame sizes and value payloads
# --------------------------------------------------------------------------- #

#: Bytes the transports' length prefix adds to every frame payload.
LENGTH_PREFIX_BYTES = 4

#: What a frame costs before its two routing strings and its message: the
#: length prefix and the envelope header.
_FRAME_OVERHEAD = LENGTH_PREFIX_BYTES + len(_PREFIX) + 1

#: Tag of a bare value payload (WAL records, snapshot states).
TAG_VALUE = 30

#: Where the items start in the value payload of a one-item dict: header
#: (magic, version, tag) + ``T_DICT`` + a one-byte count.
_DICT_ITEMS_OFFSET = 6


def frame_size(source: str, destination: str, message: Message) -> int:
    """Bytes the transports put on the wire for this routed message (length
    prefix included) — what the simulator's line model and every
    ``bytes_sent`` counter charge.  Computed from the message's fields
    without encoding it (a property test holds it equal to the encoded
    length); raises where the encoder raises."""
    size = _FRAME_OVERHEAD + str_size(source) + str_size(destination)
    sizer = _SIZERS.get(type(message))  # size_of, inlined: one call per frame
    if sizer is None:
        raise _no_tag(message)
    return size + sizer(message)


def encode_payload(value: Any) -> bytes:
    """The versioned payload of a non-message value (a WAL record, a snapshot
    state): the same magic + version as a message frame, so an on-disk frame
    without them is corrupt, then the tagged value."""
    out = bytearray()
    _write_header(out, TAG_VALUE)
    write_value(out, value)
    return bytes(out)


def decode_payload(data: bytes) -> Any:
    """Decode one :func:`encode_payload` payload, requiring the whole buffer
    to be consumed."""
    tag, offset = _read_header(data, 0)
    if tag != TAG_VALUE:
        raise WireDecodeError(f"expected a value frame (tag {TAG_VALUE}), got {tag}")
    value, end = read_value(data, offset)
    if end != len(data):
        raise WireDecodeError(f"{len(data) - end} trailing bytes after value")
    return value


def encode_dict_item(key: Any, value: Any) -> bytes:
    """The bytes one ``key: value`` item contributes to an encoded dict (see
    :func:`join_dict_items`): lets a caller that re-encodes a large dict
    often keep the bytes of the items that did not change."""
    return encode_payload({key: value})[_DICT_ITEMS_OFFSET:]


def join_dict_items(items: Sequence[bytes]) -> bytes:
    """The value payload of the dict whose items encode, in order, to *items*.

    A dict is ``T_DICT``, the item count, then each key followed by its value
    — a concatenation of independently encodable items — so chunks from
    :func:`encode_dict_item` reassemble into exactly the bytes
    :func:`encode_payload` gives for the whole dict.
    """
    head = bytearray()
    _write_header(head, TAG_VALUE)
    head.append(T_DICT)
    write_uvarint(head, len(items))
    return b"".join([head, *items])


# --------------------------------------------------------------------------- #
# The transport seam
# --------------------------------------------------------------------------- #


class Codec:
    """The wire format as an object, for the transports: each method calls the
    module function of its job.  A transport calls :meth:`encode_envelope_into`,
    :meth:`decode_envelope` and :meth:`frame_size`, so a subclass that changes
    or times the bytes on a link overrides those three."""

    def encode_message(self, message: Message) -> bytes:
        return encode_message(message)

    def decode_message(self, data: bytes) -> Message:
        return decode_message(data)

    def encode_envelope(self, source: str, destination: str, message: Message) -> bytes:
        return encode_envelope(source, destination, message)

    def encode_envelope_into(
        self, out: bytearray, source: str, destination: str, message: Message
    ) -> None:
        encode_envelope_into(out, source, destination, message)

    def decode_envelope(self, data: bytes) -> Tuple[str, str, Message]:
        return decode_envelope(data)

    def frame_size(self, source: str, destination: str, message: Message) -> int:
        return frame_size(source, destination, message)

    def encode_value(self, value: Any) -> bytes:
        return encode_payload(value)

    def decode_value(self, data: bytes) -> Any:
        return decode_payload(data)


_DEFAULT = Codec()


def get_codec(codec: Optional[Codec] = None) -> Codec:
    """The codec a transport uses: *codec*, or the shared default for ``None``."""
    return _DEFAULT if codec is None else codec
