"""Unit tests for workload generation and execution."""

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import SimCluster
from repro.verify.atomicity import check_atomicity
from repro.workload.generator import (
    ScheduledOperation,
    Workload,
    contended_workload,
    contended_writers_workload,
    keyspace_workload,
    lucky_workload,
    poisson_workload,
    run_workload,
    value_sequence,
    zipf_weights,
)


class TestGenerators:
    def test_value_sequence_is_unique(self):
        values = value_sequence()
        drawn = [next(values) for _ in range(100)]
        assert len(set(drawn)) == 100

    def test_lucky_workload_alternates_and_spaces_operations(self):
        workload = lucky_workload(3, readers=["r1", "r2"], gap=10.0)
        assert len(workload.writes()) == 3
        assert len(workload.reads()) == 3
        times = [op.at for op in workload.sorted()]
        assert times == sorted(times)
        assert all(
            later - earlier >= 10.0
            for earlier, later in zip(times, times[1:], strict=False)
        )

    def test_contended_workload_overlaps_reads_with_writes(self):
        workload = contended_workload(4, readers=["r1"], write_gap=10.0, read_offset=0.5)
        writes = workload.writes()
        reads = workload.reads()
        assert len(writes) == len(reads) == 4
        for write_op, read_op in zip(writes, reads, strict=True):
            assert read_op.at == pytest.approx(write_op.at + 0.5)

    def test_poisson_workload_respects_duration_and_seed(self):
        first = poisson_workload(50.0, write_rate=0.2, read_rate=0.4, readers=["r1"], seed=3)
        second = poisson_workload(50.0, write_rate=0.2, read_rate=0.4, readers=["r1"], seed=3)
        assert [op.at for op in first.sorted()] == [op.at for op in second.sorted()]
        assert all(op.at <= 50.0 + 50.0 for op in first.operations)

    def test_write_values_are_unique_within_workload(self):
        workload = lucky_workload(10, readers=["r1"])
        values = [op.value for op in workload.writes()]
        assert len(set(values)) == len(values)

    def test_zipf_weights_are_normalizable_and_skewed(self):
        weights = zipf_weights(5, skew=1.2)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0
        flat = zipf_weights(5, skew=0.0)
        assert all(weight == 1.0 for weight in flat)

    def test_keyspace_workload_tags_keys_and_skews_popularity(self):
        keys = [f"k{i}" for i in range(1, 6)]
        workload = keyspace_workload(
            400, keys, readers=["r1", "r2"], skew=1.2, seed=5
        )
        assert len(workload) == 400
        assert all(op.key in keys for op in workload.operations)
        counts = {key: 0 for key in keys}
        for op in workload.operations:
            counts[op.key] += 1
        assert counts["k1"] == max(counts.values())
        assert counts["k1"] > counts["k5"]

    def test_keyspace_workload_write_values_unique_per_key(self):
        keys = ["a", "b"]
        workload = keyspace_workload(100, keys, readers=["r1"], seed=2)
        for key in keys:
            values = [op.value for op in workload.writes() if op.key == key]
            assert len(set(values)) == len(values)

    def test_keyspace_workload_is_deterministic_per_seed(self):
        first = keyspace_workload(50, ["a", "b"], readers=["r1"], seed=9)
        second = keyspace_workload(50, ["a", "b"], readers=["r1"], seed=9)
        assert [(op.at, op.kind, op.key) for op in first.operations] == [
            (op.at, op.kind, op.key) for op in second.operations
        ]


class TestExecution:
    def _cluster(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        return SimCluster(LuckyAtomicProtocol(config))

    def test_run_workload_completes_every_operation(self):
        cluster = self._cluster()
        workload = lucky_workload(3, readers=["r1", "r2"], gap=10.0)
        handles = run_workload(cluster, workload)
        assert len(handles) == 6
        assert all(handle.done for handle in handles)

    def test_run_workload_defers_overlapping_invocations_of_same_client(self):
        cluster = self._cluster()
        workload = contended_workload(3, readers=["r1"], write_gap=0.1, read_offset=0.05)
        handles = run_workload(cluster, workload)
        assert all(handle.done for handle in handles)
        # Well-formedness: the writer's operations never overlap each other.
        assert cluster.history().writer_is_well_formed()

    def test_run_workload_history_is_atomic(self):
        cluster = self._cluster()
        run_workload(cluster, contended_workload(4, readers=["r1", "r2"]))
        assert check_atomicity(cluster.history()).ok

    def test_deferred_ops_keep_well_formedness_and_scheduled_at(self):
        """Deferral must preserve per-client well-formedness *and* keep the
        schedule time: ``invoked_at`` moves to the drain time, while
        ``scheduled_at`` records when the workload wanted the op, so queueing
        delay stays measurable."""
        cluster = self._cluster()
        # Writes every 0.5 time units against a ~2.5-unit write latency: every
        # write after the first is deferred behind its predecessor.
        workload = contended_workload(5, readers=["r1"], write_gap=0.5, read_offset=0.1)
        handles = run_workload(cluster, workload)
        assert all(handle.done for handle in handles)
        history = cluster.history()
        assert history.writer_is_well_formed()
        assert all(handle.scheduled_at is not None for handle in handles)
        deferred = [handle for handle in handles if handle.queueing_delay > 0]
        assert deferred, "this schedule must force deferrals"
        for handle in deferred:
            assert handle.invoked_at > handle.scheduled_at
        # The schedule time survives into the history metadata.
        for record in history:
            assert "scheduled_at" in record.metadata
            assert record.metadata["queueing_delay"] == pytest.approx(
                record.invoked_at - record.metadata["scheduled_at"]
            ) or record.metadata["queueing_delay"] == 0.0

    def test_deferred_reads_record_queueing_delay_in_history_metadata(self):
        """Reads deferred behind an earlier read of the same reader must keep
        the schedule time and expose a positive queueing delay, both on the
        handle and in the recorded history metadata."""
        cluster = self._cluster()
        # A write, then back-to-back reads by the same single reader against a
        # >= 2-unit read latency: every read after the first defers.
        workload = Workload(
            [ScheduledOperation(at=0.0, kind="write", client_id="w", value="v")]
            + [
                ScheduledOperation(at=0.2 * index, kind="read", client_id="r1")
                for index in range(1, 7)
            ]
        )
        handles = run_workload(cluster, workload)
        assert all(handle.done for handle in handles)
        deferred_reads = [
            h for h in handles if h.kind == "read" and h.queueing_delay > 0
        ]
        assert deferred_reads, "this schedule must defer reads"
        records_by_invoked = {
            (r.kind, r.invoked_at): r for r in cluster.history()
        }
        for handle in deferred_reads:
            assert handle.invoked_at > handle.scheduled_at
            record = records_by_invoked[("read", handle.invoked_at)]
            assert record.metadata["scheduled_at"] == handle.scheduled_at
            assert record.metadata["queueing_delay"] == pytest.approx(
                handle.queueing_delay
            )

    def test_undeferred_ops_have_zero_queueing_delay(self):
        cluster = self._cluster()
        handles = run_workload(cluster, lucky_workload(3, readers=["r1", "r2"], gap=20.0))
        assert all(handle.queueing_delay == 0.0 for handle in handles)
        assert all(
            handle.invoked_at == pytest.approx(handle.scheduled_at)
            for handle in handles
        )


class TestContendedWritersWorkload:
    def test_writes_come_from_several_clients(self):
        workload = contended_writers_workload(
            200, ["k1", "k2"], writers=["w", "r1", "r2"], readers=["r1", "r2"], seed=1
        )
        writer_ids = {op.client_id for op in workload.writes()}
        assert writer_ids == {"w", "r1", "r2"}

    def test_values_unique_even_across_racing_writers(self):
        workload = contended_writers_workload(
            300, ["k1", "k2"], writers=["w", "r1"], readers=["r1"], seed=2
        )
        values = [op.value for op in workload.writes()]
        assert len(values) == len(set(values))

    def test_values_embed_key_and_writer(self):
        workload = contended_writers_workload(
            50, ["k1"], writers=["w", "r1"], readers=["r1"], seed=3
        )
        for op in workload.writes():
            key, writer, _ = op.value.split(":")
            assert key == op.key
            assert writer == op.client_id

    def test_zipf_skew_concentrates_on_head_keys(self):
        keys = [f"k{i}" for i in range(1, 9)]
        workload = contended_writers_workload(
            800, keys, writers=["w"], readers=["r1"], skew=1.5, seed=4
        )
        counts = {key: 0 for key in keys}
        for op in workload.operations:
            counts[op.key] += 1
        assert counts["k1"] > counts["k8"]

    def test_deterministic_per_seed(self):
        kwargs = dict(keys=["k1", "k2"], writers=["w", "r1"], readers=["r1", "r2"])
        first = contended_writers_workload(100, seed=9, **kwargs)
        second = contended_writers_workload(100, seed=9, **kwargs)
        assert first.operations == second.operations

    def test_rejects_empty_writer_list(self):
        with pytest.raises(ValueError, match="writer"):
            contended_writers_workload(10, ["k1"], writers=[], readers=["r1"])

    def test_rejects_empty_reader_list_when_reads_possible(self):
        with pytest.raises(ValueError, match="reader"):
            contended_writers_workload(10, ["k1"], writers=["w"], readers=[])

    def test_write_only_workload_needs_no_readers(self):
        workload = contended_writers_workload(
            10, ["k1"], writers=["w", "r1"], readers=[], write_fraction=1.0
        )
        assert len(workload.writes()) == 10
