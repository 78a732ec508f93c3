"""Unit tests for the exhaustive linearizability checker."""

import pytest

from repro.core.types import BOTTOM
from repro.verify.atomicity import check_atomicity
from repro.verify.history import History, OperationRecord
from repro.verify.linearizability import HistoryTooLarge, cross_validate, is_linearizable


def write(value, start, end=None):
    return OperationRecord("w", "write", value, start, end)


def read(value, start, end, client="r1"):
    return OperationRecord(client, "read", value, start, end)


class TestLinearizable:
    def test_sequential_history_is_linearizable(self):
        history = History([write("a", 0, 1), read("a", 2, 3), write("b", 4, 5), read("b", 6, 7)])
        assert is_linearizable(history)

    def test_initial_bottom_read(self):
        assert is_linearizable(History([read(BOTTOM, 0, 1)]))

    def test_concurrent_read_may_return_old_or_new(self):
        old = History([write("a", 0, 1), write("b", 2, 10), read("a", 3, 4)])
        new = History([write("a", 0, 1), write("b", 2, 10), read("b", 3, 4)])
        assert is_linearizable(old)
        assert is_linearizable(new)

    def test_incomplete_write_may_or_may_not_take_effect(self):
        took_effect = History([write("a", 0, None), read("a", 5, 6)])
        did_not = History([write("a", 0, None), read(BOTTOM, 5, 6)])
        assert is_linearizable(took_effect)
        assert is_linearizable(did_not)

    def test_incomplete_reads_are_ignored(self):
        history = History([write("a", 0, 1), OperationRecord("r1", "read", "x", 2, None)])
        assert is_linearizable(history)


class TestNotLinearizable:
    def test_phantom_value_is_rejected(self):
        assert not is_linearizable(History([write("a", 0, 1), read("phantom", 2, 3)]))

    def test_stale_read_is_rejected(self):
        history = History([write("a", 0, 1), write("b", 2, 3), read("a", 4, 5)])
        assert not is_linearizable(history)

    def test_new_old_inversion_is_rejected(self):
        history = History(
            [
                write("a", 0, 1),
                write("b", 2, 10),
                read("b", 3, 4, client="r1"),
                read("a", 5, 6, client="r2"),
            ]
        )
        assert not is_linearizable(history)

    def test_read_before_any_write_cannot_return_value(self):
        assert not is_linearizable(History([read("a", 0, 1), write("a", 2, 3)]))


    def test_an_open_read_ahead_of_the_writes_does_not_shift_the_values(self):
        # Skipped operations must not move the indexes the search keeps.
        history = History(
            [
                OperationRecord("r2", "read", None, 0, None),
                write("a", 0, 1),
                write("b", 2, 3),
                read("a", 4, 5),
            ]
        )
        assert not is_linearizable(history)


def stamped(client, value, start, end, ts, **conditional):
    metadata = {"mwmr": True, "ts": ts, "writer_id": client, **conditional}
    return OperationRecord(client, "write", value, start, end, metadata=metadata)


def cas(client, value, start, end, ts, observed):
    """A successful CAS: it replaced the value with pair *observed* (``None`` = ⊥)."""
    observed_ts, observed_writer = observed or (0, None)
    seen = {"observed_ts": observed_ts, "observed_writer": observed_writer}
    seen["observed_bottom"] = observed is None
    return stamped(client, value, start, end, ts, cas=True, **seen)


class TestConditionalWrites:
    """A CAS / RMW takes effect only directly after the write it observed."""

    def test_cas_directly_after_the_observed_write(self):
        history = History(
            [stamped("w1", "a", 0, 1, 1), cas("w2", "b", 2, 3, 2, (1, "w1")), read("b", 4, 5)]
        )
        assert is_linearizable(history)

    def test_cas_on_the_initial_value(self):
        assert is_linearizable(History([cas("w2", "b", 0, 1, 1, None), read("b", 2, 3)]))
        late = History([stamped("w1", "a", 0, 1, 1), cas("w2", "b", 2, 3, 2, None)])
        assert not is_linearizable(late)

    def test_lost_update_is_rejected(self):
        # Both conditionals replaced (1, "w1"): one of them replaced nothing.
        history = History(
            [
                stamped("w1", "a", 0, 1, 1),
                cas("w2", "b", 2, 5, 2, (1, "w1")),
                cas("w3", "c", 3, 6, 3, (1, "w1")),
            ]
        )
        assert not is_linearizable(history)
        assert is_linearizable(History(history.records[:2]))

    def test_observing_a_pair_nobody_wrote_is_rejected(self):
        history = History([stamped("w1", "a", 0, 1, 1), cas("w2", "b", 2, 3, 2, (7, "w9"))])
        assert not is_linearizable(history)

    def test_a_failed_cas_is_a_read(self):
        def failed(start, end):
            metadata = {"mwmr": True, "ts": 1, "writer_id": "w1", "cas": True, "cas_failed": True}
            return OperationRecord("w2", "read", "a", start, end, metadata=metadata)

        assert is_linearizable(History([stamped("w1", "a", 0, 1, 1), failed(2, 3)]))
        overwritten = [stamped("w1", "a", 0, 1, 1), stamped("w1", "b", 2, 3, 2), failed(4, 5)]
        assert not is_linearizable(History(overwritten))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'Make CAS honest': the unleased optimistic CAS lets a concurrent "
        "plain write land between the observed pair and the conditional's own, and "
        "conditional-isolation exempts it; the protocol PR that removes it flips this",
    )
    def test_a_write_concurrent_with_a_cas_cannot_land_under_it(self):
        history = History(
            [
                stamped("w1", "a", 0, 1, 1),
                cas("w2", "b", 2, 10, 3, (1, "w1")),
                stamped("w3", "c", 2.5, 9, 2),  # lands between (1, w1) and (3, w2)
                read("b", 11, 12),
            ]
        )
        assert not is_linearizable(history)  # as a CAS object: "c" has nowhere to go
        assert not check_atomicity(history).ok  # ...and the sweep should say so


class TestLimits:
    def test_large_history_raises(self):
        records = [write(f"v{i}", 2 * i, 2 * i + 1) for i in range(30)]
        with pytest.raises(HistoryTooLarge):
            is_linearizable(History(records))

    def test_cross_validate_returns_none_for_large_history(self):
        records = [write(f"v{i}", 2 * i, 2 * i + 1) for i in range(30)]
        assert cross_validate(History(records)) is None

    def test_cross_validate_returns_bool_for_small_history(self):
        assert cross_validate(History([write("a", 0, 1), read("a", 2, 3)])) is True
