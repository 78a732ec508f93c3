"""Unit tests for repro.core.types."""

import pickle

import pytest

from repro.core.types import (
    BOTTOM,
    INITIAL_FROZEN,
    INITIAL_PAIR,
    FreezeDirective,
    NewReadReport,
    TimestampValue,
    as_dict,
    freshest,
    is_bottom,
)


class TestBottom:
    def test_bottom_is_singleton(self):
        import repro.core.types as types_module

        assert types_module._Bottom() is BOTTOM

    def test_is_bottom_detects_sentinel(self):
        assert is_bottom(BOTTOM)

    def test_is_bottom_rejects_none_and_values(self):
        assert not is_bottom(None)
        assert not is_bottom(0)
        assert not is_bottom("⊥")

    def test_bottom_survives_pickling_as_singleton(self):
        clone = pickle.loads(pickle.dumps(BOTTOM))
        assert clone is BOTTOM

    def test_initial_pair_holds_bottom_at_timestamp_zero(self):
        assert INITIAL_PAIR.ts == 0
        assert is_bottom(INITIAL_PAIR.val)


class TestTimestampValue:
    def test_order_key_compares_timestamps_only(self):
        assert TimestampValue(2, "a").order_key > TimestampValue(1, "z").order_key
        assert TimestampValue(1, "a").order_key == TimestampValue(1, "b").order_key
        assert TimestampValue(2, "x").order_key < TimestampValue(3, "y").order_key

    def test_equality_considers_value(self):
        assert TimestampValue(1, "a") != TimestampValue(1, "b")
        assert TimestampValue(1, "a") == TimestampValue(1, "a")

    def test_hashable_and_usable_in_sets(self):
        pairs = {TimestampValue(1, "a"), TimestampValue(1, "a"), TimestampValue(2, "a")}
        assert len(pairs) == 2


class TestFrozenEntry:
    def test_default_entry_is_initial(self):
        assert INITIAL_FROZEN.pair == INITIAL_PAIR
        assert INITIAL_FROZEN.read_ts == 0


class TestFreshest:
    def test_freshest_returns_highest_timestamp(self):
        result = freshest(TimestampValue(1, "a"), TimestampValue(5, "b"), TimestampValue(3, "c"))
        assert result == TimestampValue(5, "b")

    def test_freshest_breaks_ties_towards_first(self):
        first = TimestampValue(5, "first")
        second = TimestampValue(5, "second")
        assert freshest(first, second) is first

    def test_freshest_rejects_empty_call(self):
        with pytest.raises(ValueError):
            freshest()


class TestAsDict:
    def test_bottom_encoded_as_marker(self):
        assert as_dict(BOTTOM) == {"__bottom__": True}

    def test_dataclass_encoded_with_type_tag(self):
        encoded = as_dict(TimestampValue(3, "v"))
        assert encoded["__type__"] == "TimestampValue"
        assert encoded["ts"] == 3
        assert encoded["val"] == "v"

    def test_nested_structures_are_encoded(self):
        directive = FreezeDirective(reader_id="r1", pair=TimestampValue(2, "x"), read_ts=9)
        encoded = as_dict({"items": [directive]})
        assert encoded["items"][0]["__type__"] == "FreezeDirective"
        assert encoded["items"][0]["pair"]["ts"] == 2

    def test_newread_report_roundtrip_fields(self):
        report = NewReadReport(reader_id="r2", read_ts=11)
        encoded = as_dict(report)
        assert encoded["reader_id"] == "r2"
        assert encoded["read_ts"] == 11


class TestLexicographicOrdering:
    """MWMR ordering: pairs compare by the lexicographic (ts, writer_id)."""

    def test_default_writer_id_keeps_swmr_semantics(self):
        # Pairs without a writer id order exactly as before: by timestamp.
        assert TimestampValue(1, "a").order_key == (1, "")

    def test_equal_ts_orders_by_writer_id(self):
        loser = TimestampValue(3, "x", writer_id="r1")
        winner = TimestampValue(3, "y", writer_id="w")
        assert winner.order_key > loser.order_key
        assert freshest(loser, winner) is winner

    def test_equality_includes_writer_id(self):
        assert TimestampValue(3, "x", writer_id="w") != TimestampValue(3, "x")

    def test_as_dict_round_trips_writer_id(self):
        encoded = as_dict(TimestampValue(3, "v", writer_id="r2"))
        assert encoded["writer_id"] == "r2"

    def test_pickle_round_trip_preserves_writer_id(self):
        pair = TimestampValue(9, "v", writer_id="r7")
        assert pickle.loads(pickle.dumps(pair)) == pair
