"""Unit tests for the message-batching layer and its satellites.

Covers the ``Batch`` envelope helpers, the simulator's flush boundary (one
delivery event per batch, per-frame overhead amortisation), the interplay with
message filters, the scaled event budget of the workload drivers, and the
``ShardedClient`` timer-delay regression (heterogeneous per-register delays
must survive construction).
"""

import pytest

from repro.bench.harness import summarize
from repro.core.config import SystemConfig
from repro.core.messages import Batch, PreWrite, Read, iter_unbatched, make_envelope
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import DROP, SimCluster, SimulationError
from repro.store.sharding import ShardedClient, ShardedProtocol
from repro.store.sim import ShardedSimStore
from repro.workload.generator import (
    dense_store_workload,
    keyspace_workload,
    run_workload,
    workload_event_budget,
)


# --------------------------------------------------------------------------- #
# Envelope helpers
# --------------------------------------------------------------------------- #


class TestEnvelope:
    def test_single_message_is_not_wrapped(self):
        message = Read(sender="r1", register_id="k1")
        assert make_envelope("r1", [message]) is message

    def test_multiple_messages_share_one_envelope(self):
        messages = [
            PreWrite(sender="w", register_id="k1", ts=1),
            PreWrite(sender="w", register_id="k2", ts=1),
        ]
        envelope = make_envelope("w", messages)
        assert isinstance(envelope, Batch)
        assert envelope.sender == "w"
        assert len(envelope) == 2
        assert list(envelope.messages) == messages

    def test_iter_unbatched_flattens_envelopes_and_passes_plain_messages(self):
        message = Read(sender="r1", register_id="k1")
        assert iter_unbatched(message) == (message,)
        batch = make_envelope("r1", [message, message])
        assert iter_unbatched(batch) == (message, message)


# --------------------------------------------------------------------------- #
# ShardedClient timer-delay regression
# --------------------------------------------------------------------------- #


class TestShardedClientTimerDelay:
    def _config(self):
        return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

    def test_explicit_assignment_still_broadcasts_uniformly(self):
        base = LuckyAtomicProtocol(self._config())
        inner = {key: base.create_writer(register_id=key) for key in ("k1", "k2")}
        inner["k1"].timer_delay = 3.0
        client = ShardedClient("w", factory=inner.get)
        client.write("k1", "a")
        client.timer_delay = 42.0
        client.write("k2", "b")  # admitted after the assignment
        assert client.timer_delay == 42.0
        assert sorted(client.registers) == ["k1", "k2"]
        assert all(a.timer_delay == 42.0 for a in client.registers.values())

    def test_auto_timer_cluster_still_sets_uniform_delays(self):
        config = self._config()
        suite = ShardedProtocol(LuckyAtomicProtocol(config), ["k1", "k2"])
        cluster = SimCluster(suite)
        writer = cluster.writer
        for key in ("k1", "k2"):
            cluster.start(config.writer_id, "write", "v", register_id=key)
        expected = cluster.topology.suggested_timer_for(config.writer_id, config.server_ids())
        assert [a.timer_delay for a in writer.registers.values()] == [expected, expected]

    def test_a_client_over_an_empty_table_keeps_the_suites_timer(self):
        # A client has no inner automaton to copy a delay from when it is
        # built, so the suite's has to reach it some other way than through one.
        suite = ShardedProtocol(LuckyAtomicProtocol(self._config(), timer_delay=3.0), [])
        writer = suite.create_writer()
        suite.create_register("k0")
        writer.write("k0", "v")
        assert writer.timer_delay == 3.0
        assert writer.registers["k0"].timer_delay == 3.0


# --------------------------------------------------------------------------- #
# Simulator flush boundary
# --------------------------------------------------------------------------- #


def _store(keys, batching, frame_overhead=0.0, **kwargs):
    config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
    return ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        batching=batching,
        frame_overhead=frame_overhead,
        **kwargs,
    )


class TestSimBatching:
    def test_batched_and_unbatched_runs_are_equivalent(self):
        """Batching is a transport optimisation, not a semantic change.

        The exact serialization of *concurrent* operations may differ (a batch
        shifts tie-breaks between same-instant events), so the invariant is
        not bit-identical reads but: the same operations run, every write
        lands, and every per-key history passes the atomicity checker in both
        modes.
        """
        keys = ["k1", "k2", "k3", "k4"]
        results = {}
        for batching in (False, True):
            store = _store(keys, batching)
            workload = keyspace_workload(
                80, keys, store.config.reader_ids(), write_fraction=0.5, seed=11
            )
            run_workload(store, workload)
            assert store.verify_atomic()
            results[batching] = [
                (h.client_id, h.kind, h.register_id)
                + ((h.value,) if h.kind == "write" else ())
                for h in store.completed_operations()
            ]
        assert sorted(map(str, results[True])) == sorted(map(str, results[False]))

    def test_batches_collapse_frames_under_line_backpressure(self):
        keys = [f"k{i}" for i in range(1, 9)]
        workloads = {}
        for batching in (False, True):
            store = _store(keys, batching, frame_overhead=0.1)
            workload = dense_store_workload(
                64, keys, store.config.reader_ids(), gap=0.05
            )
            run_workload(store, workload)
            assert store.verify_atomic()
            workloads[batching] = store
        unbatched, batched = workloads[False], workloads[True]
        # Same protocol messages travel either way...
        assert batched.messages_sent == unbatched.messages_sent
        # ...but batching puts them on the wire in far fewer frames (each
        # frame is one DeliveryEvent, so the delay model charged one network
        # traversal per batch)...
        assert unbatched.frames_sent == unbatched.messages_sent
        assert batched.frames_sent < unbatched.frames_sent
        # ...which amortises the per-frame overhead into higher throughput.
        assert (
            summarize(batched.completed_operations()).throughput
            > summarize(unbatched.completed_operations()).throughput
        )

    def test_batch_deliveries_are_traced_per_protocol_message(self):
        store = _store(["k1", "k2"], batching=True, frame_overhead=0.1)
        workload = dense_store_workload(
            16, store.keys, store.config.reader_ids(), gap=0.01
        )
        run_workload(store, workload)
        kinds = {kind for _, _, kind in store.trace.delivered}
        # The envelope is transparent: traces (and thus per-kind message
        # statistics) only ever see protocol messages.
        assert "Batch" not in kinds
        assert {"PreWrite", "PreWriteAck"} <= kinds

    def test_message_filter_applies_per_message_inside_batches(self):
        dropped = []

        def drop_prewrites_to_s1(source, destination, message, now):
            if destination == "s1" and message.kind == "PreWrite":
                dropped.append(message)
                return DROP
            return None

        store = _store(["k1", "k2"], batching=True, message_filter=drop_prewrites_to_s1)
        store.write("k1", "a")
        store.write("k2", "b")
        assert store.read("k1").value == "a"
        assert store.read("k2").value == "b"
        assert dropped, "the filter must have seen individual PreWrites"
        filtered = sum(
            count
            for (_, _, reason), count in store.trace.dropped.items()
            if reason == "filtered"
        )
        assert filtered == len(dropped)

    def test_plain_single_register_suites_are_never_batched(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
        cluster = SimCluster(LuckyAtomicProtocol(config))
        cluster.write("v1")
        assert cluster.read("r1").value == "v1"
        assert cluster.frames_sent == cluster.messages_sent


# --------------------------------------------------------------------------- #
# Workload event budget
# --------------------------------------------------------------------------- #


class TestWorkloadEventBudget:
    def test_budget_scales_with_workload_size_and_fleet(self):
        store = _store(["k1", "k2"], batching=True)
        small = keyspace_workload(10, store.keys, store.config.reader_ids(), seed=1)
        large = keyspace_workload(50_000, store.keys, store.config.reader_ids(), seed=1)
        small_budget = workload_event_budget(store, small)
        large_budget = workload_event_budget(store, large)
        # The cluster's default stays the floor for small workloads...
        assert small_budget == store.max_events_per_run
        # ...while large ones get proportionally more headroom.
        assert large_budget > store.max_events_per_run
        assert large_budget >= 50_000 * len(store.processes)

    @pytest.mark.parametrize("batching", [False, True])
    def test_large_healthy_workload_outgrows_a_tiny_cluster_cap(self, batching):
        # A fixed cap this small would abort the final drain of a healthy run;
        # the drivers must scale the budget with the workload instead.
        store = _store(["k1", "k2", "k3"], batching, max_events_per_run=64)
        workload = keyspace_workload(
            60, store.keys, store.config.reader_ids(), mean_gap=0.05, seed=5
        )
        handles = run_workload(store, workload)
        assert all(handle.done for handle in handles)
        assert all(handle.scheduled_at is not None for handle in handles)
        assert store.verify_atomic()

    def test_burst_then_gap_schedule_survives_a_tiny_cap(self):
        """The backlog of a dense burst drains inside the run_for window that
        advances to a much later op; that window must use the scaled budget
        too, not the cluster's unscaled per-run cap (16 concurrent writes on a
        6-server fleet put well over 64 events into that single window)."""
        from repro.workload.generator import ScheduledOperation, Workload

        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        keys = [f"k{i}" for i in range(1, 17)]
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            keys,
            batching=False,
            max_events_per_run=64,
        )
        operations = [
            ScheduledOperation(
                at=0.001 * i, kind="write", client_id="w", value=f"{key}:v{i}", key=key
            )
            for i, key in enumerate(keys)
        ]
        operations.append(
            ScheduledOperation(at=500.0, kind="read", client_id="r1", key="k1")
        )
        handles = run_workload(store, Workload(operations))
        assert all(handle.done for handle in handles)
        assert store.verify_atomic()

    def test_direct_run_still_enforces_the_configured_cap(self):
        # The budget remains a livelock tripwire for direct run() calls.
        store = _store(["k1"], batching=True, max_events_per_run=3)
        with pytest.raises(SimulationError, match="event budget"):
            store.write("k1", "v")
