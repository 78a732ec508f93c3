"""Unit tests for operation histories."""

import math

from repro.verify.history import History, OperationRecord


def write(value, start, end, client="w"):
    return OperationRecord(
        client_id=client, kind="write", value=value, invoked_at=start, completed_at=end
    )


def read(value, start, end, client="r1"):
    return OperationRecord(
        client_id=client, kind="read", value=value, invoked_at=start, completed_at=end
    )


class TestOperationRecord:
    def test_precedes_requires_completion_before_invocation(self):
        first = write("a", 0, 1)
        second = read("a", 2, 3)
        assert first.precedes(second)
        assert not second.precedes(first)

    def test_overlapping_operations_are_concurrent(self):
        first = write("a", 0, 5)
        second = read("a", 2, 3)
        assert first.concurrent_with(second)
        assert second.concurrent_with(first)

    def test_incomplete_operation_never_precedes(self):
        pending = OperationRecord("w", "write", "a", 0, None)
        later = read("a", 100, 101)
        assert not pending.precedes(later)
        assert pending.end_time == math.inf
        assert not pending.complete


class TestHistoryStructure:
    def test_writes_ordered_by_invocation(self):
        history = History([write("b", 5, 6), write("a", 0, 1)])
        assert [record.value for record in history.writes()] == ["a", "b"]

    def test_duplicate_detection(self):
        assert History([write("a", 0, 1), write("a", 2, 3)]).has_duplicate_write_values()
        assert not History([write("a", 0, 1), write("b", 2, 3)]).has_duplicate_write_values()

    def test_reads_filters_incomplete_by_default(self):
        pending = OperationRecord("r1", "read", None, 0, None)
        history = History([pending, read("a", 1, 2)])
        assert len(history.reads()) == 1
        assert len(history.reads(only_complete=False)) == 2

    def test_writer_well_formedness(self):
        ok = History([write("a", 0, 1), write("b", 2, 3)])
        assert ok.writer_is_well_formed()
        overlapping = History([write("a", 0, 5), write("b", 2, 3)])
        assert not overlapping.writer_is_well_formed()

    def test_contention_free_detection(self):
        history = History([write("a", 0, 1), read("a", 2, 3), read("a", 0.5, 4)])
        reads = history.reads()  # sorted by invocation time
        overlapping, isolated = reads[0], reads[1]
        assert not history.contention_free(overlapping)
        assert history.contention_free(isolated)

    def test_merge_concatenates(self):
        merged = History([write("a", 0, 1)]).merge(History([read("a", 2, 3)]))
        assert len(merged) == 2

    def test_describe_lists_operations_in_time_order(self):
        history = History([read("a", 2, 3), write("a", 0, 1)])
        description = history.describe()
        assert description.index("WRITE") < description.index("READ")
