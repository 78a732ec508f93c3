"""The wire format: one versioned binary codec for every serialized byte.

Everything this system puts on a wire or a disk — TCP frames, WAL records,
snapshots, batch envelopes — goes through this package.  The format is a
compact, length-prefixed, *versioned* binary encoding with an explicit
per-message-type schema (:mod:`repro.wire.codec`) over a small self-describing
value encoding (:mod:`repro.wire.values`), so frame sizes are observable,
non-Python clients can speak it, and any accidental format change fails the
golden-vector tests loudly instead of silently shipping a new dialect.

The previous serializer (pickle) is gone: nothing writes or reads its frames,
and a WAL or snapshot frame that does not open with the wire magic is treated
as corrupt.
"""

from .codec import (
    MAGIC,
    WIRE_VERSION,
    BinaryCodec,
    Codec,
    UnknownTagError,
    UnknownVersionError,
    WireDecodeError,
    WireEncodeError,
    WireFormatError,
    decode_envelope,
    decode_message,
    encode_envelope,
    encode_envelope_into,
    encode_message,
    encode_message_into,
    get_codec,
)
from .values import decode_value, encode_value, register_struct

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "BinaryCodec",
    "Codec",
    "UnknownTagError",
    "UnknownVersionError",
    "WireDecodeError",
    "WireEncodeError",
    "WireFormatError",
    "decode_envelope",
    "decode_message",
    "decode_value",
    "encode_envelope",
    "encode_envelope_into",
    "encode_message",
    "encode_message_into",
    "encode_value",
    "get_codec",
    "register_struct",
]
