"""Unit tests for the versioned binary wire codec (repro.wire)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    Batch,
    PreWrite,
    Read,
    ReadAck,
    Write,
    WriteAck,
)
from repro.core.types import BOTTOM, FreezeDirective, FrozenEntry, NewReadReport, TimestampValue
from repro.persist.wal import WalRecord
from repro.wire import (
    MAGIC,
    WIRE_VERSION,
    Codec,
    UnknownTagError,
    UnknownVersionError,
    WireDecodeError,
    WireEncodeError,
    decode_envelope,
    decode_message,
    decode_payload,
    decode_value,
    encode_envelope,
    encode_message,
    encode_payload,
    encode_value,
    frame_size,
    get_codec,
    register_struct,
)
from repro.wire.codec import (
    LENGTH_PREFIX_BYTES,
    MESSAGE_TAGS,
    TAG_ENVELOPE,
    encode_dict_item,
    join_dict_items,
)
from repro.wire.golden import message_zoo


class TestValueRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            127,
            -128,
            2**40,
            -(2**40),
            2**100,  # arbitrary precision survives the varint zigzag
            0.0,
            -1.5,
            3.141592653589793,
            "",
            "hello",
            "café ⊥ 漢字",
            b"",
            b"\x00\x80\xff",
            BOTTOM,
            (),
            (1, "two", None),
            [],
            [1, [2, [3]]],
            {},
            {"k": 1, "nested": {"deep": (True, BOTTOM)}},
        ],
    )
    def test_primitives(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bottom_identity_preserved(self):
        decoded = decode_value(encode_value(BOTTOM))
        assert decoded is BOTTOM

    @pytest.mark.parametrize(
        "struct",
        [
            TimestampValue(7, "v", "w"),
            TimestampValue(0, BOTTOM),
            FrozenEntry(TimestampValue(3, None, "w2"), 4),
            FreezeDirective("r1", TimestampValue(1, "x", "w"), 2),
            NewReadReport("r9", 300),
            WalRecord("k1", "pw", 7, "w", "v7"),
            WalRecord("", "vw", 0, "", BOTTOM),
        ],
    )
    def test_registered_structs(self, struct):
        assert decode_value(encode_value(struct)) == struct

    def test_unencodable_type_rejected_with_guidance(self):
        with pytest.raises(WireEncodeError, match="register_struct"):
            encode_value({1, 2, 3})

    def test_tuple_and_list_stay_distinct(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]
        assert isinstance(decode_value(encode_value([1, 2])), list)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)


class TestStructRegistry:
    def test_reregistering_same_pair_is_idempotent(self):
        register_struct(0x18, WalRecord)  # already owned by persist.wal

    def test_conflicting_tag_reuse_rejected(self):
        with pytest.raises(ValueError):
            register_struct(0x18, NewReadReport)

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            register_struct(0x7F, object)


class TestMessageRoundtrip:
    @pytest.mark.parametrize(
        "message", message_zoo(), ids=lambda m: type(m).__name__
    )
    def test_zoo_roundtrips(self, message):
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert type(decoded) is type(message)

    def test_every_message_type_has_permanent_tag(self):
        # The tag table is append-only; this pins the published numbers.
        assert MESSAGE_TAGS[PreWrite] == 1
        assert MESSAGE_TAGS[Batch] == 13
        assert len(set(MESSAGE_TAGS.values())) == len(MESSAGE_TAGS)

    def test_batch_recursive_framing(self):
        # Each inner message is a complete frame of its own, header and all,
        # so a gateway can re-split a batch without knowing the inner types.
        inner = (Read(sender="w", register_id="k1", read_ts=1), WriteAck(sender="w", ts=2))
        batch = Batch(sender="w", messages=inner)
        frame = encode_message(batch)
        assert frame.endswith(b"".join(encode_message(message) for message in inner))
        assert decode_message(frame) == batch

    def test_batch_inside_a_batch_is_refused_at_decode(self):
        # The envelope is flat (make_envelope never nests); a decoder that
        # followed nesting would let 3000 hostile headers overflow the stack.
        inner = Read(sender="w", register_id="k1", read_ts=1)
        nested = Batch(sender="w", messages=(Batch(sender="w", messages=(inner,)),))
        with pytest.raises(WireDecodeError, match="flat"):
            decode_message(encode_message(nested))
        frame = encode_message(inner)
        for _ in range(3000):
            frame = encode_message(Batch(sender="w"))[:-1] + b"\x01" + frame
        with pytest.raises(WireDecodeError, match="flat"):
            decode_message(frame)

    def test_frame_starts_with_magic_and_version(self):
        frame = encode_message(Read(sender="r1"))
        assert frame[:2] == MAGIC
        assert frame[2] == WIRE_VERSION

    def test_binary_smaller_than_pickle(self):
        # The old serializer is gone from the codec registry, but the size
        # claim that justified the migration stays checkable with the stdlib.
        import pickle  # noqa: F401 -- comparison baseline only, not a codec

        for message in message_zoo():
            assert len(encode_message(message)) < len(
                pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            )


class TestEnvelope:
    def test_roundtrip(self):
        message = Write(sender="w", ts=3, pair=TimestampValue(3, "v", "w"))
        data = encode_envelope("w", "s2", message)
        assert decode_envelope(data) == ("w", "s2", message)

    def test_message_frame_rejected_as_envelope(self):
        with pytest.raises(WireDecodeError, match="envelope"):
            decode_envelope(encode_message(Read(sender="r1")))

    def test_frame_size_is_prefix_plus_payload(self):
        message = ReadAck(sender="s1", read_ts=2, round=1)
        assert frame_size("s1", "r1", message) == LENGTH_PREFIX_BYTES + len(
            encode_envelope("s1", "r1", message)
        )


class TestDecodeErrors:
    def test_unknown_version(self):
        frame = bytearray(encode_message(Read(sender="r1")))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(UnknownVersionError):
            decode_message(bytes(frame))

    def test_unknown_tag(self):
        frame = bytearray(encode_message(Read(sender="r1")))
        frame[3] = 0xEE
        with pytest.raises(UnknownTagError):
            decode_message(bytes(frame))

    def test_bad_magic_mentions_pickle_dialect(self):
        with pytest.raises(WireDecodeError, match="pickle"):
            decode_message(b"\x80\x04" + b"junk")

    def test_truncated_header(self):
        with pytest.raises(WireDecodeError, match="truncated"):
            decode_message(MAGIC)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_message(encode_message(Read(sender="r1")) + b"\x00")

    def test_envelope_tag_constant_reserved(self):
        assert TAG_ENVELOPE not in MESSAGE_TAGS.values()


class TestCodecObjects:
    def test_get_codec_resolution(self):
        assert get_codec(None) is get_codec()
        assert type(get_codec()) is Codec
        instance = Codec()
        assert get_codec(instance) is instance

    def test_every_method_is_its_module_function(self):
        codec = get_codec()
        for message in message_zoo():
            envelope = encode_envelope("s1", "r1", message)
            assert codec.encode_message(message) == encode_message(message)
            assert codec.decode_message(encode_message(message)) == message
            assert codec.encode_envelope("s1", "r1", message) == envelope
            out = bytearray(b"x")
            codec.encode_envelope_into(out, "s1", "r1", message)
            assert out == b"x" + envelope
            assert codec.decode_envelope(envelope) == ("s1", "r1", message)
            assert codec.frame_size("s1", "r1", message) == frame_size("s1", "r1", message)
        state = {"k": [TimestampValue(1, "v"), None]}
        assert codec.encode_value(state) == encode_payload(state)
        assert codec.decode_value(encode_payload(state)) == state == decode_payload(
            encode_payload(state)
        )

    @pytest.mark.parametrize("count", [0, 1, 127, 128, 300])
    def test_dict_items_join_to_the_whole_dicts_bytes(self, count):
        # Counts past 127 take a multi-byte varint: the join writes the real
        # count, the per-item encoder only ever strips a one-item dict's.
        state = {f"k{i}": {"pw": TimestampValue(i, "v"), "n": [i, None]} for i in range(count)}
        items = [encode_dict_item(key, value) for key, value in state.items()]
        assert join_dict_items(items) == encode_payload(state)


# ----------------------------------------------------------------- hypothesis

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.just(BOTTOM),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)

_pairs = st.builds(
    TimestampValue,
    ts=st.integers(min_value=0, max_value=2**40),
    val=st.one_of(st.just(BOTTOM), st.none(), st.text(max_size=10), st.integers()),
    writer_id=st.text(max_size=4),
)

_messages = st.one_of(
    st.builds(
        Read,
        sender=st.text(max_size=6),
        register_id=st.text(max_size=6),
        epoch=st.integers(min_value=0, max_value=2**20),
        read_ts=st.integers(min_value=0, max_value=2**30),
        round=st.integers(min_value=0, max_value=5),
    ),
    st.builds(
        Write,
        sender=st.text(max_size=6),
        ts=st.integers(min_value=0, max_value=2**30),
        pair=_pairs,
    ),
    st.builds(
        WriteAck,
        sender=st.text(max_size=6),
        epoch=st.integers(min_value=0, max_value=2**20),
        ts=st.integers(min_value=0, max_value=2**30),
        from_writer=st.booleans(),
    ),
    st.builds(
        ReadAck,
        sender=st.text(max_size=6),
        read_ts=st.integers(min_value=0, max_value=2**30),
        pw=_pairs,
        w=_pairs,
        vw=st.one_of(st.none(), _pairs),
        frozen=st.one_of(
            st.none(),
            st.builds(
                FrozenEntry, pair=_pairs, read_ts=st.integers(min_value=0, max_value=100)
            ),
        ),
    ),
)


class TestHypothesisRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(value=_values)
    def test_values(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=200, deadline=None)
    @given(message=_messages)
    def test_messages(self, message):
        assert decode_message(encode_message(message)) == message

    @settings(max_examples=100, deadline=None)
    @given(messages=st.lists(_messages, max_size=5), sender=st.text(max_size=6))
    def test_batches(self, messages, sender):
        batch = Batch(sender=sender, messages=tuple(messages))
        assert decode_message(encode_message(batch)) == batch

    @settings(max_examples=100, deadline=None)
    @given(
        source=st.text(max_size=8), destination=st.text(max_size=8), message=_messages
    )
    def test_envelopes(self, source, destination, message):
        assert decode_envelope(encode_envelope(source, destination, message)) == (
            source,
            destination,
            message,
        )
