"""Self-describing binary encoding of the protocol's value space.

Every field a message, WAL record or snapshot carries is built from a small,
closed set of shapes: ``None``, booleans, integers, floats, strings, bytes,
the register's initial value ⊥, tuples/lists/dicts of those, and a handful of
frozen dataclasses (:class:`~repro.core.types.TimestampValue` and friends).
Each shape is encoded as one *tag byte* followed by a tag-specific body::

    0x00 None          (no body)
    0x01 False         (no body)
    0x02 True          (no body)
    0x03 int           zigzag varint
    0x04 float         8 bytes, IEEE-754 big-endian
    0x05 str           uvarint byte length + UTF-8 bytes
    0x06 bytes         uvarint byte length + raw bytes
    0x07 ⊥ (BOTTOM)    (no body)
    0x08 tuple         uvarint count + encoded items
    0x09 list          uvarint count + encoded items
    0x0A dict          uvarint count + encoded key/value pairs
    0x10+ struct       registered dataclass: encoded fields in declaration order

Varints are unsigned LEB128; signed integers are zigzag-mapped first.  Struct
tags are assigned once and never reused (:func:`register_struct`); the core
types are registered here, :class:`~repro.persist.wal.WalRecord` registers
itself from its own module (the wire package must not import persistence).
A value sits inside at most :data:`MAX_NESTING` containers (tuple, list, dict,
struct): the encoder refuses to write deeper, the decoder to read deeper.

:func:`read_value` / :func:`write_value` *interpret* the tag byte.  A
registered struct is read and written by a function *generated* from its
dataclass fields and type hints (:func:`register_struct`): straight-line code
that handles the declared shape of each field inline and hands anything else
— a multi-byte varint, a field a Byzantine sender filled with the wrong type —
to the interpreter at that offset, so both accept and produce the same bytes.

An unsupported Python type raises :class:`WireEncodeError` naming the type —
the value space is deliberately closed, because an exhaustively checkable wire
format cannot contain "whatever the process happened to have in memory";
register a struct tag for any new wire-crossing dataclass.
"""

from __future__ import annotations

import dataclasses
import struct
import typing
from typing import Any, Callable, Dict, List, Tuple, Type

from ..core.types import (
    BOTTOM,
    FreezeDirective,
    FrozenEntry,
    NewReadReport,
    TimestampValue,
    is_bottom,
)


class WireFormatError(ValueError):
    """Base class of every wire-format error."""


class WireEncodeError(WireFormatError):
    """A value (or message) cannot be expressed in the wire format."""


class WireDecodeError(WireFormatError):
    """Bytes that do not parse as the wire format (truncated, corrupt, alien)."""


T_NONE = 0x00
T_FALSE = 0x01
T_TRUE = 0x02
T_INT = 0x03
T_FLOAT = 0x04
T_STR = 0x05
T_BYTES = 0x06
T_BOTTOM = 0x07
T_TUPLE = 0x08
T_LIST = 0x09
T_DICT = 0x0A

#: First tag of the registered-struct range.
T_STRUCT_BASE = 0x10

#: A limit of the format, not a tunable: containers (tuple, list, dict, struct)
#: around a value.  Honest payloads nest five or six deep (a snapshot is dict >
#: dict > dict > struct > struct); without a limit a few kilobytes of ``T_TUPLE
#: 1`` end the decoder in a ``RecursionError``, not a :class:`WireDecodeError`.
MAX_NESTING = 32

_FLOAT = struct.Struct("!d")

#: ``(data, offset past the tag, depth of the fields) -> (struct, end_offset)``
#: and ``(out, struct, depth of the fields)``, which appends tag and fields:
#: the generated codecs of the registered struct shapes, beside their tags.
StructReader = Callable[[bytes, int, int], Tuple[Any, int]]
StructWriter = Callable[[bytearray, Any, int], None]
_TAG_BY_STRUCT: Dict[Type[Any], int] = {}
_STRUCT_READERS: Dict[int, StructReader] = {}
_STRUCT_WRITERS: Dict[Type[Any], StructWriter] = {}


# --------------------------------------------------------------------------- #
# Varints
# --------------------------------------------------------------------------- #


def write_uvarint(out: bytearray, value: int) -> None:
    """Append *value* (>= 0) as an unsigned LEB128 varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint at *offset*: ``(value, end_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireDecodeError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def _zigzag(value: int) -> int:
    # Arbitrary-precision integers: the classic zigzag map without a width.
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# --------------------------------------------------------------------------- #
# The interpreter: one tag test after another (the reference)
# --------------------------------------------------------------------------- #


def write_str(out: bytearray, text: str) -> None:
    """Append *text* as uvarint length + UTF-8 bytes (no tag)."""
    raw = text.encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def read_str(data: bytes, offset: int) -> Tuple[str, int]:
    """Read a tagless uvarint-length-prefixed UTF-8 string at *offset*."""
    length, offset = read_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise WireDecodeError("truncated string")
    try:
        return data[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"invalid UTF-8 in string: {exc}") from None


def write_value(out: bytearray, value: Any, depth: int = 0) -> None:
    """Append the tagged encoding of *value*, which sits in *depth* containers."""
    if value is None:
        out.append(T_NONE)
    elif value is True:
        out.append(T_TRUE)
    elif value is False:
        out.append(T_FALSE)
    elif type(value) is int:
        out.append(T_INT)
        write_uvarint(out, _zigzag(value))
    elif type(value) is float:
        out.append(T_FLOAT)
        out += _FLOAT.pack(value)
    elif type(value) is str:
        out.append(T_STR)
        write_str(out, value)
    elif type(value) is bytes:
        out.append(T_BYTES)
        write_uvarint(out, len(value))
        out += value
    elif is_bottom(value):
        out.append(T_BOTTOM)
    elif depth >= MAX_NESTING:
        raise WireEncodeError(f"value nested more than {MAX_NESTING} containers deep")
    elif (writer := _STRUCT_WRITERS.get(type(value))) is not None:
        writer(out, value, depth + 1)
    elif type(value) is tuple:
        out.append(T_TUPLE)
        write_uvarint(out, len(value))
        for item in value:
            write_value(out, item, depth + 1)
    elif type(value) is list:
        out.append(T_LIST)
        write_uvarint(out, len(value))
        for item in value:
            write_value(out, item, depth + 1)
    elif type(value) is dict:
        out.append(T_DICT)
        write_uvarint(out, len(value))
        for key, item in value.items():
            write_value(out, key, depth + 1)
            write_value(out, item, depth + 1)
    else:
        raise WireEncodeError(
            f"type {type(value).__name__!r} has no wire encoding; the "
            "binary value space is closed — register_struct a tag for it "
            "(and bump WIRE_VERSION)"
        )


def read_value(data: bytes, offset: int, depth: int = 0) -> Tuple[Any, int]:
    """Decode the tagged value at *offset*, which sits in *depth* containers:
    ``(value, end_offset)``."""
    if offset >= len(data):
        raise WireDecodeError("truncated value (missing tag)")
    tag = data[offset]
    offset += 1
    if tag == T_NONE:
        return None, offset
    if tag == T_TRUE:
        return True, offset
    if tag == T_FALSE:
        return False, offset
    if tag == T_INT:
        raw, offset = read_uvarint(data, offset)
        return _unzigzag(raw), offset
    if tag == T_FLOAT:
        end = offset + _FLOAT.size
        if end > len(data):
            raise WireDecodeError("truncated float")
        return _FLOAT.unpack_from(data, offset)[0], end
    if tag == T_STR:
        return read_str(data, offset)
    if tag == T_BYTES:
        length, offset = read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise WireDecodeError("truncated bytes")
        return data[offset:end], end
    if tag == T_BOTTOM:
        return BOTTOM, offset
    if depth >= MAX_NESTING:
        raise WireDecodeError(f"value nested more than {MAX_NESTING} containers deep")
    if tag >= T_STRUCT_BASE:
        reader = _STRUCT_READERS.get(tag)
        if reader is None:
            raise WireDecodeError(f"unknown value tag {tag:#x}")
        return reader(data, offset, depth + 1)
    if tag in (T_TUPLE, T_LIST):
        count, offset = read_uvarint(data, offset)
        items = []
        for _ in range(count):
            item, offset = read_value(data, offset, depth + 1)
            items.append(item)
        return (tuple(items) if tag == T_TUPLE else items), offset
    if tag == T_DICT:
        count, offset = read_uvarint(data, offset)
        result = {}
        for _ in range(count):
            key, offset = read_value(data, offset, depth + 1)
            item, offset = read_value(data, offset, depth + 1)
            try:
                result[key] = item
            except TypeError:
                raise WireDecodeError(
                    f"dict key of unhashable type {type(key).__name__!r}"
                ) from None
        return result, offset
    raise WireDecodeError(f"unknown value tag {tag:#x}")


def encode_value(value: Any) -> bytes:
    """The tagged binary encoding of *value* (no frame header)."""
    out = bytearray()
    write_value(out, value)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Decode one tagged value, requiring the whole buffer to be consumed."""
    value, end = read_value(data, 0)
    if end != len(data):
        raise WireDecodeError(f"{len(data) - end} trailing bytes after value")
    return value


# --------------------------------------------------------------------------- #
# The compiler: a reader and a writer generated per declared shape
# --------------------------------------------------------------------------- #

#: Declared field type -> ``(read, write)`` source of its usual encoding: an
#: ``if`` the emitters close with ``else:`` the interpreter (``{v}``: the
#: value's variable).  The last entry serves ``str``, ``Any`` (the register's
#: opaque value: a short string, or ⊥ unwritten) and every type not listed.
_INLINE: Dict[Any, Tuple[str, str]] = {
    int: (
        f"if data[o] == {T_INT} and (z := data[o + 1]) < 128:\n    {{v}} = _UNZIGZAG[z]; o += 2",
        "if type({v}) is int and 0 <= {v} < 64:\n    out += _INT1[{v}]",
    ),
    bool: (
        f"if (z := data[o]) == {T_TRUE} or z == {T_FALSE}:\n    {{v}} = z == {T_TRUE}; o += 1",
        f"if type({{v}}) is bool:\n    out.append({T_TRUE} if {{v}} else {T_FALSE})",
    ),
    tuple: (
        f"if data[o:o + 2] == {bytes((T_TUPLE, 0))!r}:\n    {{v}} = (); o += 2",
        f"if type({{v}}) is tuple and not {{v}}:\n    out += {bytes((T_TUPLE, 0))!r}",
    ),
    Any: (
        f"if data[o] == {T_STR} and (z := data[o + 1]) < 128:\n"
        "    if (e := o + 2 + z) > end: raise WireDecodeError('truncated string')\n"
        "    {v} = data[o + 2:e].decode(); o = e\n"
        f"elif data[o] == {T_BOTTOM}:\n    {{v}} = BOTTOM; o += 1",
        "if type({v}) is str and len(raw := {v}.encode()) < 128:\n"
        "    out += _STR1[len(raw)]; out += raw\n"
        f"elif {{v}} is BOTTOM:\n    out.append({T_BOTTOM})",
    ),
}

#: One-byte varints decoded, and small ints / short-string headers encoded.
_UNZIGZAG = tuple(_unzigzag(z) for z in range(128))
_INT1 = tuple(bytes((T_INT, v << 1)) for v in range(64))
_STR1 = tuple(bytes((T_STR, n)) for n in range(128))

#: What a reader's straight line leaves unchecked — an index past the end of
#: the buffer, bytes that are not UTF-8 — surfaces here, once per function.
_READER_GUARD = """\
    except IndexError:
        raise WireDecodeError('truncated frame') from None
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f'invalid UTF-8 in string: {exc}') from None"""


def struct_fields(cls: Type[Any]) -> List[Tuple[str, Any]]:
    """``(name, declared type)`` of each dataclass field, in wire order."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def _usual(hint: Any) -> Tuple[str, str]:
    return _INLINE.get(typing.get_origin(hint) or hint, _INLINE[Any])


def emit(body: List[str], pad: str, source: str) -> None:
    """Append the lines of *source* to *body*, indented by *pad*."""
    body.extend(pad + line for line in source.split("\n"))


def emit_read(body: List[str], pad: str, hint: Any, depth: str) -> str:
    """Append source that reads the tagged value at ``o`` — declared as
    *hint*, sitting in *depth* containers — and return its variable."""
    tag = _TAG_BY_STRUCT.get(hint)
    if tag is None:
        v = f"v{len(body)}"
        emit(body, pad, _usual(hint)[0].format(v=v))
    else:
        body += [f"{pad}if data[o] == {tag} and {depth} < {MAX_NESTING}:", f"{pad}    o += 1"]
        v = emit_struct_read(body, pad + "    ", hint, f"{depth} + 1")
    body += [f"{pad}else:", f"{pad}    {v}, o = read_value(data, o, {depth})"]
    return v


def emit_struct_read(body: List[str], pad: str, cls: Type[Any], depth: str) -> str:
    """Append source that reads the fields of the registered struct *cls*
    (its tag already consumed) and builds it; returns the struct's variable."""
    args = [emit_read(body, pad, hint, depth) for _, hint in struct_fields(cls)]
    v = f"v{len(body)}"
    build = f"{v} = c{_TAG_BY_STRUCT[cls]}({', '.join(args)})"
    if hasattr(cls, "__post_init__"):  # it validates: a refusal is a decode error
        build = f"try: {build}\nexcept ValueError as exc: raise WireDecodeError(str(exc)) from None"
    emit(body, pad, build)
    return v


def emit_write(body: List[str], pad: str, value: str, hint: Any, depth: str) -> None:
    """Append source that writes the expression *value* — declared as *hint*,
    sitting in *depth* containers — to ``out``."""
    v = f"v{len(body)}"
    body.append(f"{pad}{v} = {value}")
    tag = _TAG_BY_STRUCT.get(hint)
    if tag is None:
        emit(body, pad, _usual(hint)[1].format(v=v))
    else:
        body.append(f"{pad}if type({v}) is c{tag} and {depth} < {MAX_NESTING}:")
        emit_struct_write(body, pad + "    ", v, hint, f"{depth} + 1")
    body += [f"{pad}else:", f"{pad}    write_value(out, {v}, {depth})"]


def emit_struct_write(body: List[str], pad: str, v: str, cls: Type[Any], depth: str) -> None:
    """Append source that writes the tag and the fields of the struct in *v*."""
    body.append(f"{pad}out.append({_TAG_BY_STRUCT[cls]})")
    for name, hint in struct_fields(cls):
        emit_write(body, pad, f"{v}.{name}", hint, depth)


def compile_function(
    name: str, signature: str, body: List[str], reader: bool = False, **scope: Any
) -> Any:
    """Define ``name(signature)`` from the source lines *body* (for a
    *reader*: indented by 8, to sit inside the guard).  The source sees this
    module's names, ``c<tag>`` for each struct class and *scope*, and stays on
    the function as ``__source__``."""
    if reader:
        body = ["    end = len(data)", "    try:", *body, _READER_GUARD]
    source = "\n".join([f"def {name}({signature}):", *body, ""])
    names = {**globals(), **{f"c{tag}": cls for cls, tag in _TAG_BY_STRUCT.items()}, **scope}
    exec(compile(source, f"<generated {name}>", "exec"), names)
    function = names[name]
    function.__source__ = source
    return function


def register_struct(tag: int, cls: Type[Any]) -> Type[Any]:
    """Assign wire *tag* to the frozen dataclass *cls* (one tag, forever) and
    generate its reader and writer.

    Fields are encoded in declaration order with the self-describing value
    encoding, so adding a field to a registered struct is a wire-format change
    and must bump :data:`~repro.wire.codec.WIRE_VERSION`.
    """
    if tag < T_STRUCT_BASE or tag > 0xFF:
        raise ValueError(f"struct tags live in [0x10, 0xFF], not {tag:#x}")
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    existing = next((c for c, t in _TAG_BY_STRUCT.items() if t == tag), None)
    if existing is not None and existing is not cls:
        raise ValueError(f"struct tag {tag:#x} is already taken by {existing.__name__}")
    _TAG_BY_STRUCT[cls] = tag
    read: List[str] = []
    read.append(f"        return {emit_struct_read(read, ' ' * 8, cls, 'd')}, o")
    _STRUCT_READERS[tag] = compile_function(f"read_{cls.__name__}", "data, o, d", read, True)
    write: List[str] = []
    emit_struct_write(write, "    ", "m", cls, "d")
    _STRUCT_WRITERS[cls] = compile_function(f"write_{cls.__name__}", "out, m, d", write)
    return cls


# The core protocol dataclasses.  Tags are permanent; never renumber.
register_struct(0x10, TimestampValue)
register_struct(0x11, FrozenEntry)
register_struct(0x12, FreezeDirective)
register_struct(0x13, NewReadReport)
# 0x18 is taken by repro.persist.wal.WalRecord (registered there).
