"""The wire format: one versioned binary codec for every serialized byte.

Everything this system puts on a wire or a disk — TCP frames, WAL records,
snapshots, batch envelopes — goes through this package.  The format is a
compact, length-prefixed, *versioned* binary encoding with an explicit
per-message-type schema (:mod:`repro.wire.codec`) over a small self-describing
value encoding (:mod:`repro.wire.values`), so frame sizes are observable,
non-Python clients can speak it, and any accidental format change fails the
golden-vector tests loudly instead of silently shipping a new dialect.

Every layer calls the module functions; only a transport takes a
:class:`Codec`, the same functions as an object (:mod:`repro.wire.codec`).

The previous serializer (pickle) is gone: nothing writes or reads its frames,
and a WAL or snapshot frame that does not open with the wire magic is treated
as corrupt.
"""

from .codec import (
    MAGIC,
    WIRE_VERSION,
    Codec,
    UnknownTagError,
    UnknownVersionError,
    WireDecodeError,
    WireEncodeError,
    WireFormatError,
    decode_envelope,
    decode_message,
    decode_payload,
    encode_envelope,
    encode_envelope_into,
    encode_message,
    encode_payload,
    frame_size,
    get_codec,
)
from .values import decode_value, encode_value, register_struct

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "Codec",
    "UnknownTagError",
    "UnknownVersionError",
    "WireDecodeError",
    "WireEncodeError",
    "WireFormatError",
    "decode_envelope",
    "decode_message",
    "decode_payload",
    "decode_value",
    "encode_envelope",
    "encode_envelope_into",
    "encode_message",
    "encode_payload",
    "encode_value",
    "frame_size",
    "get_codec",
    "register_struct",
]
