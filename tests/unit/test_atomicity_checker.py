"""Unit tests for the atomicity checker (SWMR, MWMR, open writes) and regularity."""

import random
import time

import pytest

from repro.core.types import BOTTOM
from repro.verify.atomicity import check_atomicity
from repro.verify.history import History, OperationRecord
from repro.verify.linearizability import is_linearizable
from repro.verify.regularity import check_regularity


def write(value, start, end):
    return OperationRecord("w", "write", value, start, end)


def read(value, start, end, client="r1"):
    return OperationRecord(client, "read", value, start, end)


class TestNoCreation:
    def test_reading_written_value_is_fine(self):
        history = History([write("a", 0, 1), read("a", 2, 3)])
        assert check_atomicity(history).ok

    def test_reading_bottom_initially_is_fine(self):
        history = History([read(BOTTOM, 0, 1)])
        assert check_atomicity(history).ok

    def test_reading_unwritten_value_is_flagged(self):
        history = History([write("a", 0, 1), read("phantom", 2, 3)])
        result = check_atomicity(history)
        assert not result.ok
        assert result.violations[0].property_name == "no-creation"


class TestReadAfterWrite:
    def test_stale_read_after_complete_write_is_flagged(self):
        history = History([write("a", 0, 1), write("b", 2, 3), read("a", 4, 5)])
        result = check_atomicity(history)
        assert not result.ok
        assert any(v.property_name == "read-after-write" for v in result.violations)

    def test_reading_bottom_after_a_write_is_flagged(self):
        history = History([write("a", 0, 1), read(BOTTOM, 2, 3)])
        result = check_atomicity(history)
        assert not result.ok

    def test_read_concurrent_with_write_may_return_either(self):
        history = History(
            [write("a", 0, 1), write("b", 2, 10), read("a", 3, 4), read("b", 5, 6)]
        )
        assert check_atomicity(history).ok

    def test_incomplete_write_does_not_force_new_value(self):
        history = History(
            [write("a", 0, 1), OperationRecord("w", "write", "b", 2, None), read("a", 3, 4)]
        )
        assert check_atomicity(history).ok


class TestNoFutureRead:
    def test_read_of_value_written_later_is_flagged(self):
        history = History([read("b", 0, 1), write("b", 2, 3)])
        result = check_atomicity(history)
        assert not result.ok
        assert any(v.property_name == "no-future-read" for v in result.violations)

    def test_read_overlapping_the_write_is_fine(self):
        history = History([write("b", 0, 5), read("b", 1, 2)])
        assert check_atomicity(history).ok


class TestReadHierarchy:
    def test_new_old_inversion_between_readers_is_flagged(self):
        history = History(
            [
                write("a", 0, 1),
                write("b", 2, 10),  # concurrent with both reads
                read("b", 3, 4, client="r1"),
                read("a", 5, 6, client="r2"),
            ]
        )
        result = check_atomicity(history)
        assert not result.ok
        assert any(v.property_name == "read-hierarchy" for v in result.violations)

    def test_regularity_permits_the_same_inversion(self):
        history = History(
            [
                write("a", 0, 1),
                write("b", 2, 10),
                read("b", 3, 4, client="r1"),
                read("a", 5, 6, client="r2"),
            ]
        )
        assert check_regularity(history).ok

    def test_concurrent_reads_are_not_constrained(self):
        history = History(
            [
                write("a", 0, 1),
                write("b", 2, 10),
                read("b", 3, 6, client="r1"),
                read("a", 4, 7, client="r2"),
            ]
        )
        assert check_atomicity(history).ok

    def test_monotone_readers_are_fine(self):
        history = History(
            [
                write("a", 0, 1),
                read("a", 2, 3, client="r1"),
                write("b", 4, 5),
                read("b", 6, 7, client="r2"),
            ]
        )
        assert check_atomicity(history).ok


class TestResultObject:
    def test_summary_counts_operations(self):
        history = History([write("a", 0, 1), read("a", 2, 3)])
        result = check_atomicity(history)
        assert result.checked_reads == 1
        assert result.checked_writes == 1
        assert "OK" in result.summary()

    def test_raise_if_violated(self):
        history = History([read("phantom", 0, 1)])
        result = check_atomicity(history)
        with pytest.raises(AssertionError):
            result.raise_if_violated()

    def test_duplicate_values_produce_warning_not_violation(self):
        history = History([write("a", 0, 1), write("a", 2, 3), read("a", 4, 5)])
        result = check_atomicity(history)
        assert result.ok
        assert result.warnings

    def test_overlapping_writer_produces_warning(self):
        history = History([write("a", 0, 10), write("b", 2, 3)])
        result = check_atomicity(history)
        assert result.warnings

    def test_incomplete_reads_are_not_checked(self):
        history = History([write("a", 0, 1), OperationRecord("r1", "read", "phantom", 2, None)])
        assert check_atomicity(history).ok


def mwrite(value, start, end, client, ts, register="k"):
    return OperationRecord(
        client,
        "write",
        value,
        start,
        end,
        metadata={"mwmr": True, "writer_id": client, "ts": ts, "register_id": register},
    )


def mread(value, start, end, client="r1", ts=None, writer=None, register="k"):
    metadata = {"register_id": register}
    if ts is not None:
        metadata["ts"] = ts
        metadata["writer_id"] = writer
    return OperationRecord(client, "read", value, start, end, metadata=metadata)


class TestPerRegisterWellFormednessWarning:
    def test_overlapping_writes_on_different_registers_do_not_warn(self):
        history = History(
            [
                OperationRecord("w", "write", "a", 0, 10, metadata={"register_id": "k1"}),
                OperationRecord("w", "write", "b", 2, 3, metadata={"register_id": "k2"}),
            ]
        )
        result = check_atomicity(history)
        assert not result.warnings

    def test_overlapping_writes_on_one_swmr_register_warn_with_its_name(self):
        history = History(
            [
                OperationRecord("w", "write", "a", 0, 10, metadata={"register_id": "k1"}),
                OperationRecord("w", "write", "b", 2, 3, metadata={"register_id": "k1"}),
            ]
        )
        result = check_atomicity(history)
        assert any("'k1'" in warning for warning in result.warnings)

    def test_mwmr_register_skips_the_swmr_overlap_warning(self):
        history = History(
            [
                mwrite("a", 0, 10, "w", ts=1),
                mwrite("b", 2, 3, "r1", ts=2),
            ]
        )
        result = check_atomicity(history)
        assert not result.warnings

    def test_mwmr_register_still_warns_on_per_client_overlap(self):
        history = History(
            [
                mwrite("a", 0, 10, "w", ts=1),
                mwrite("b", 2, 3, "w", ts=2),
            ]
        )
        result = check_atomicity(history)
        assert any("per-client" in warning for warning in result.warnings)


class TestMultiWriterChecker:
    def test_dispatch_detects_mwmr_from_metadata(self):
        history = History([mwrite("a", 0, 1, "w", ts=1)])
        assert check_atomicity(history).consistency == "mwmr-atomicity"
        assert check_atomicity(history, mwmr=False).consistency == "atomicity"

    def test_dominated_pair_after_both_writes_is_flagged(self):
        history = History(
            [
                mwrite("a", 0, 5, "w", ts=1),
                mwrite("b", 1, 6, "r1", ts=1),  # concurrent, tie on ts
                mread("b", 7, 8, ts=1, writer="r1"),
            ]
        )
        # Both writes completed before the read; (1, "r1") < (1, "w"), so
        # returning "b" ignores the dominating completed pair.
        result = check_atomicity(history)
        assert not result.ok
        assert result.violations[0].property_name == "read-after-write"

    def test_read_of_dominating_pair_is_fine(self):
        history = History(
            [
                mwrite("a", 0, 5, "w", ts=1),
                mwrite("b", 1, 6, "r1", ts=1),
                mread("a", 7, 8, ts=1, writer="w"),
            ]
        )
        result = check_atomicity(history)
        assert result.ok, result.violations

    def test_write_order_violation_is_flagged(self):
        history = History(
            [
                mwrite("a", 0, 1, "w", ts=5),
                mwrite("b", 2, 3, "r1", ts=4),  # later write, smaller pair
            ]
        )
        result = check_atomicity(history)
        assert any(v.property_name == "write-order" for v in result.violations)

    def test_pair_reuse_is_flagged(self):
        history = History(
            [
                mwrite("a", 0, 1, "w", ts=3),
                mwrite("b", 2, 3, "w", ts=3),
            ]
        )
        result = check_atomicity(history)
        assert any(v.property_name == "pair-reuse" for v in result.violations)

    def test_no_creation_still_applies(self):
        history = History([mwrite("a", 0, 1, "w", ts=1), mread("phantom", 2, 3)])
        result = check_atomicity(history)
        assert any(v.property_name == "no-creation" for v in result.violations)

    def test_no_future_read_still_applies(self):
        history = History([mread("b", 0, 1), mwrite("b", 2, 3, "w", ts=1)])
        result = check_atomicity(history)
        assert any(v.property_name == "no-future-read" for v in result.violations)

    def test_read_hierarchy_uses_pair_order(self):
        history = History(
            [
                mwrite("a", 0, 20, "w", ts=1),
                mwrite("b", 0, 20, "r1", ts=2),
                mread("b", 2, 3, client="r2", ts=2, writer="r1"),
                mread("a", 4, 5, client="r3", ts=1, writer="w"),
            ]
        )
        result = check_atomicity(history)
        assert any(v.property_name == "read-hierarchy" for v in result.violations)

    def test_pair_mismatch_between_read_and_write_is_flagged(self):
        history = History(
            [
                mwrite("a", 0, 1, "w", ts=1),
                mread("a", 2, 3, ts=7, writer="forger"),
            ]
        )
        result = check_atomicity(history)
        assert any(v.property_name == "pair-mismatch" for v in result.violations)

    def test_reading_bottom_before_any_write_is_fine(self):
        history = History([mread(BOTTOM, 0, 1)])
        assert check_atomicity(history, mwmr=True).ok

    def test_missing_metadata_degrades_with_warning(self):
        history = History(
            [
                OperationRecord(
                    "w", "write", "a", 0, 1, metadata={"mwmr": True, "register_id": "k"}
                ),
                mread("a", 2, 3),
            ]
        )
        result = check_atomicity(history)
        assert result.ok
        assert any("lack (ts, writer_id) metadata" in w for w in result.warnings)


class TestMultiWriterCheckerAcrossRegisters:
    """Regression: combined multi-key histories must be checked per register."""

    def test_same_pair_on_different_registers_is_not_pair_reuse(self):
        # Each register counts timestamps from scratch, so the first write to
        # k1 and to k2 both legitimately carry (1, "w").
        history = History(
            [
                mwrite("k1:w:v1", 0, 1, "w", ts=1, register="k1"),
                mwrite("k2:w:v1", 2, 3, "w", ts=1, register="k2"),
            ]
        )
        result = check_atomicity(history)
        assert result.ok, result.violations

    def test_cross_register_write_order_is_not_enforced(self):
        history = History(
            [
                mwrite("k1:w:v1", 0, 1, "w", ts=5, register="k1"),
                mwrite("k2:w:v1", 2, 3, "w", ts=1, register="k2"),
            ]
        )
        assert check_atomicity(history).ok

    def test_violations_in_a_combined_history_name_their_register(self):
        history = History(
            [
                mwrite("a", 0, 1, "w", ts=3, register="k1"),
                mwrite("b", 2, 3, "w", ts=3, register="k1"),
                mwrite("c", 0, 1, "w", ts=1, register="k2"),
            ]
        )
        result = check_atomicity(history)
        assert not result.ok
        assert all("'k1'" in str(v) for v in result.violations)

    def test_read_without_writer_id_metadata_is_not_a_mismatch(self):
        # Reads of SWMR-written pairs carry no writer_id; the reading client's
        # id must not be mistaken for the pair's writer.
        history = History(
            [
                mwrite("a", 0, 1, "w", ts=1),
                OperationRecord(
                    "r1", "read", "a", 2, 3,
                    metadata={"ts": 1, "register_id": "k"},
                ),
            ]
        )
        result = check_atomicity(history)
        assert result.ok, result.violations


def open_write(value, start, client, register="k"):
    # What `history()` holds for a write whose completion never ran: no stamp.
    metadata = {"register_id": register}
    return OperationRecord(client, "write", value, start, None, metadata=metadata)


class TestOpenWrites:
    """A read of an open write's value is ordered like any other read."""

    def history(self, report_pair=True):
        reported = {"ts": 2, "writer": "w2"} if report_pair else {}
        return History(
            [
                mwrite("a", 0, 1, "w1", ts=1),
                open_write("b", 2, "w2"),
                mread("b", 3, 4, client="r1", **reported),
                mread("a", 5, 6, client="r2", ts=1, writer="w1"),
            ]
        )

    def test_new_old_inversion_over_an_open_mwmr_write_is_flagged(self):
        # The open write takes the pair its reader reports, so the inversion
        # is the same read-hierarchy violation as on an SWMR history.
        result = check_atomicity(self.history(), mwmr=True)
        assert [v.property_name for v in result.violations] == ["read-hierarchy"]
        assert not result.warnings
        swmr = History(
            [write("a", 0, 1), write("b", 2, None), read("b", 3, 4), read("a", 5, 6, "r2")]
        )
        assert [v.property_name for v in check_atomicity(swmr).violations] == ["read-hierarchy"]

    def test_a_read_nobody_can_key_is_left_out_with_a_warning(self):
        result = check_atomicity(self.history(report_pair=False), mwmr=True)
        assert result.ok
        assert any("left out of the order properties" in w for w in result.warnings)

    def test_readers_disagreeing_about_an_open_writes_pair_is_a_mismatch(self):
        history = History(
            [
                open_write("b", 0, "w2"),
                mread("b", 1, 2, client="r1", ts=2, writer="w2"),
                mread("b", 3, 4, client="r2", ts=9, writer="forger"),
            ]
        )
        result = check_atomicity(history, mwmr=True)
        assert [v.property_name for v in result.violations] == ["pair-mismatch"]

    def test_open_write_that_nobody_read_constrains_nothing(self):
        history = History(
            [
                mwrite("a", 0, 1, "w1", ts=1),
                open_write("b", 2, "w2"),
                mread("a", 5, 6, ts=1, writer="w1"),
            ]
        )
        result = check_atomicity(history)
        assert result.ok and not result.warnings


def conditional(value, start, end, client, ts, observed):
    """A successful CAS stamping *ts* that observed the pair *observed*."""
    record = mwrite(value, start, end, client, ts)
    observed_ts, observed_writer = observed
    record.metadata.update(
        cas=True, observed_ts=observed_ts, observed_writer=observed_writer, observed_bottom=False
    )
    return record


class TestConditionalIsolation:
    """A conditional replaced a pair: ⊥ or a written one, below its own."""

    def test_a_conditional_that_observed_a_pair_nobody_wrote_is_flagged(self):
        # The shrunk history of the property test's seed 132: w2's timestamp
        # was mutated from 2 to 1, so no write carries the (2, w2) the CAS saw.
        history = History(
            [
                mwrite("v0", -1, 1, "w1", ts=1),
                mwrite("v1", 0, 1.5, "w2", ts=1),
                conditional("v2", 1.75, 3, "w1", ts=3, observed=(2, "w2")),
            ]
        )
        assert not is_linearizable(history)
        result = check_atomicity(history, mwmr=True)
        assert [v.property_name for v in result.violations] == ["conditional-isolation"]
        assert "no WRITE carries" in result.violations[0].description

    def test_a_conditional_must_observe_a_pair_below_its_own(self):
        # The values alone linearize ("b" replaced "a"); the pairs say the
        # conditional replaced a higher pair than it wrote, which no MWMR
        # client stamps.
        history = History(
            [
                mwrite("a", 0, 1, "w1", ts=2),
                conditional("b", 2, 3, "w2", ts=1, observed=(2, "w1")),
            ]
        )
        result = check_atomicity(history, mwmr=True)
        assert "conditional-isolation" in [v.property_name for v in result.violations]

    def test_an_unstamped_open_write_may_be_what_a_conditional_observed(self):
        history = History(
            [
                open_write("a", 0, "w1"),
                conditional("b", 1, 2, "w2", ts=3, observed=(2, "w1")),
            ]
        )
        assert is_linearizable(history)
        assert check_atomicity(history, mwmr=True).ok

    def test_a_read_of_an_open_cas_is_not_no_creation(self):
        # An open conditional keeps its invocation kind: it may have taken
        # effect, like an open write.
        open_cas = OperationRecord("w2", "cas", "b", 2, None, metadata={"register_id": "k"})
        history = History(
            [
                mwrite("a", 0, 1, "w1", ts=1),
                open_cas,
                mread("b", 3, 4, ts=2, writer="w2"),
            ]
        )
        assert is_linearizable(history)
        result = check_atomicity(history, mwmr=True)
        assert result.ok, result.violations


class TestOneCheckerForEveryRegister:
    """What the three mirrored checkers disagreed about."""

    def test_single_writer_histories_are_split_by_register_too(self):
        def on(register, record):
            record.metadata["register_id"] = register
            return record

        history = History(
            [on("k1", write("a", 0, 1)), on("k2", write("b", 2, 3)), on("k1", read("a", 4, 5))]
        )
        assert check_atomicity(history).ok
        assert check_atomicity(history, mwmr=False).ok
        assert check_regularity(history).ok

    def test_auto_detection_is_per_register(self):
        history = History(
            [
                mwrite("a", 0, 5, "w1", ts=1, register="hot"),
                mwrite("b", 1, 6, "w2", ts=2, register="hot"),
                OperationRecord("w", "write", "x", 0, 1, metadata={"register_id": "cold"}),
                OperationRecord("r1", "read", "x", 2, 3, metadata={"register_id": "cold"}),
            ]
        )
        result = check_atomicity(history)
        assert result.ok and not result.warnings
        assert result.consistency == "mwmr-atomicity"

    def test_each_offending_operation_is_reported_once_with_the_highest_witness(self):
        history = History(
            [write("a", 0, 1), write("b", 2, 3), write("c", 4, 5), read("a", 6, 7)]
            + [read("c", 8, 9, "r2"), read("c", 10, 11, "r3"), read("b", 12, 13, "r4")]
        )
        result = check_atomicity(history)
        assert [v.property_name for v in result.violations] == [
            "read-after-write",  # "a" after "c" completed
            "read-after-write",  # "b" after "c" completed
            "read-hierarchy",  # "b" after two reads of "c": reported once
        ]
        assert result.violations[0].operations[0].value == "c"

    def test_consistency_label_says_what_the_history_contained(self):
        plain = History([mwrite("a", 0, 1, "w", ts=1)])
        assert check_regularity(plain).consistency == "regularity"
        assert check_atomicity(plain).consistency == "mwmr-atomicity"
        failed_cas = mread("a", 2, 3, client="w2", ts=1, writer="w")
        failed_cas.metadata.update(cas=True, cas_failed=True, mwmr=True)
        conditional = History([*plain.records, failed_cas])
        result = check_atomicity(conditional)
        assert result.consistency == "mwmr-atomicity+conditional"
        assert (result.cas_writes, result.cas_failures) == (0, 1)
        assert check_atomicity(conditional, mwmr=False).consistency == "atomicity"

    def test_unhashable_values_are_matched_by_repr(self):
        history = History([write(["a", 1], 0, 1), read(["a", 1], 2, 3), read({"k": 2}, 4, 5)])
        result = check_atomicity(history)
        assert [v.property_name for v in result.violations] == ["no-creation"]


def hot_key_history(operations, mwmr, plant=None):
    """One register, a write every fourth operation, reads of the latest value.

    *plant* = ``(position, kind)`` seeds one violation: a ``"stale"`` read of
    the value before the latest, or a write whose pair goes ``"backwards"``.
    """
    records, values = [], []
    for n in range(operations):
        start = float(n)
        writer = f"w{n % 3 + 1}" if mwmr else "w"
        if n % 4 == 0:
            ts = len(values) + 1
            if plant == (n, "backwards"):
                ts -= 2
            values.append((f"v{n}", ts, writer))
            stamp = {"mwmr": True, "ts": ts, "writer_id": writer} if mwmr else {}
            end = start + 0.5
            records.append(OperationRecord(writer, "write", f"v{n}", start, end, metadata=stamp))
        else:
            value, ts, writer = values[-2] if plant == (n, "stale") else values[-1]
            stamp = {"ts": ts, "writer_id": writer} if mwmr else {}
            records.append(
                OperationRecord(f"r{n % 5}", "read", value, start, start + 0.5, metadata=stamp)
            )
    return History(records)


class TestHotKey:
    """A single hot register is checkable: the sweep is n log n, not n³."""

    OPERATIONS = 20_000

    @pytest.mark.parametrize("mwmr", [False, True], ids=["swmr", "mwmr"])
    def test_twenty_thousand_operations_on_one_register_check_in_seconds(self, mwmr):
        history = hot_key_history(self.OPERATIONS, mwmr)
        started = time.perf_counter()
        result = check_atomicity(history)
        elapsed = time.perf_counter() - started
        assert result.ok and not result.warnings
        assert result.checked_reads + result.checked_writes == self.OPERATIONS
        # ~0.05 s here; the all-pairs checkers needed 120 s for a tenth of it.
        assert elapsed < 2.0

    @pytest.mark.parametrize("mwmr", [False, True], ids=["swmr", "mwmr"])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_planted_stale_read_is_found_wherever_it_is(self, mwmr, seed):
        position = random.Random(seed).randrange(8, self.OPERATIONS) | 1  # a read
        result = check_atomicity(hot_key_history(self.OPERATIONS, mwmr, (position, "stale")))
        # Stale against the completed write and, unless it directly follows
        # that write, against the reads that already returned the new value.
        names = [v.property_name for v in result.violations]
        assert names in (["read-after-write"], ["read-after-write", "read-hierarchy"])
        assert all(v.operations[1].invoked_at == float(position) for v in result.violations)

    def test_a_planted_backwards_pair_is_found_wherever_it_is(self):
        position = random.Random(7).randrange(8, self.OPERATIONS) & ~3  # a write
        result = check_atomicity(hot_key_history(self.OPERATIONS, True, (position, "backwards")))
        first = result.violations[0]
        assert first.property_name == "write-order"
        assert first.operations[1].invoked_at == float(position)
