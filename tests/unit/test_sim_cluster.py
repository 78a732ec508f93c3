"""Unit tests for the simulation cluster itself (event loop, filters, crashes)."""

import pytest

import repro

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.messages import Batch, PreWrite
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.byzantine import MuteStrategy
from repro.sim.cluster import DROP, SimCluster, SimulationError
from repro.sim.failures import FailureSchedule
from repro.sim.topology import FixedDelay, LinkMetrics
from repro.workload.generator import ScheduledOperation, Workload, run_workload


@pytest.fixture
def config():
    return SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)


def build(config, timer_policy=TimerPolicy.DEADLINE, **kwargs):
    return SimCluster(LuckyAtomicProtocol(config, timer_policy=timer_policy), **kwargs)


class TestConstruction:
    def test_all_processes_instantiated(self, config):
        cluster = build(config)
        assert set(cluster.processes) == set(config.server_ids() + config.client_ids())

    def test_auto_timer_uses_delay_model_bound(self, config):
        # ``delay_model=`` (the surface benchmarks/e2e builds on) gives every
        # link the same metrics: FixedDelay(2.0) is LinkMetrics(latency=2.0).
        cluster = build(config, delay_model=FixedDelay(2.0))
        assert cluster.writer.timer_delay == pytest.approx(4.5)
        assert cluster.write("v").latency == pytest.approx(4.0)

    def test_default_network_is_one_zone_of_unit_links(self, config):
        cluster = build(config)
        assert cluster.topology.bound(config.writer_id, "s1") == 1.0
        assert cluster.writer.timer_delay == 2.5
        assert cluster.write("v").latency == 2.0

    def test_fixed_delay_is_the_constant_link(self):
        # The frozen name benchmarks/e2e imports from ``repro``.
        assert repro.FixedDelay(2.0) == LinkMetrics(latency=2.0)
        assert repro.FixedDelay(2.0).bound() == 2.0

    def test_too_many_byzantine_rejected(self, config):
        with pytest.raises(ValueError):
            build(config, byzantine={"s1": MuteStrategy(), "s2": MuteStrategy()})

    def test_byzantine_non_server_rejected(self, config):
        with pytest.raises(ValueError):
            build(config, byzantine={"r1": MuteStrategy()})

    def test_total_faulty_servers_bounded_by_t(self, config):
        failures = FailureSchedule.crash_at_start(["s2", "s3"])
        with pytest.raises(ValueError):
            build(config, byzantine={"s1": MuteStrategy()}, failures=failures)


class TestRunLoop:
    def test_virtual_time_advances_with_events(self, config):
        cluster = build(config)
        assert cluster.now == 0.0
        cluster.write("x")
        assert cluster.now > 0.0

    def test_run_for_advances_clock_even_without_events(self, config):
        cluster = build(config)
        cluster.run_for(12.5)
        assert cluster.now == 12.5

    def test_run_until_condition(self, config):
        cluster = build(config)
        handle = cluster.start_write("x")
        cluster.run(until=lambda: handle.done)
        assert handle.done

    def test_run_raises_when_condition_unreachable(self, config):
        # Crash more servers than the protocol needs for progress is rejected
        # by the model check, so instead drop every message: the queue drains
        # and the run condition can never hold.
        cluster = build(config, message_filter=lambda *args: DROP)
        handle = cluster.start_write("x")
        with pytest.raises(SimulationError):
            cluster.run(until=lambda: handle.done)

    def test_event_budget_guards_against_livelock(self, config):
        cluster = build(config, max_events_per_run=3)
        cluster.start_write("x")
        with pytest.raises(SimulationError):
            cluster.run()


class TestOperationHandles:
    def test_handle_records_latency_and_rounds(self, config):
        cluster = build(config)
        handle = cluster.write("x")
        assert handle.done
        assert handle.rounds == 1
        assert handle.latency > 0
        assert handle.value == "x"

    def test_unfinished_handle_raises_on_access(self, config):
        cluster = build(config)
        handle = cluster.start_write("x")
        with pytest.raises(RuntimeError):
            _ = handle.value
        with pytest.raises(RuntimeError):
            _ = handle.latency

    def test_scheduled_operations_fire_at_their_time(self, config):
        cluster = build(config)
        write, read = run_workload(
            cluster,
            Workload(
                [
                    ScheduledOperation(at=10.0, kind="write", client_id="w", value="later"),
                    ScheduledOperation(at=30.0, kind="read", client_id="r1"),
                ]
            ),
        )
        assert write.scheduled_at == write.invoked_at == pytest.approx(10.0)
        assert read.scheduled_at == read.invoked_at == pytest.approx(30.0)
        assert read.value == "later"

    def test_history_contains_all_operations(self, config):
        cluster = build(config)
        cluster.write("x")
        cluster.read("r1")
        history = cluster.history()
        assert len(history) == 2
        assert len(history.writes()) == 1


class TestFailureInjection:
    def test_crashed_server_receives_nothing(self, config):
        failures = FailureSchedule.crash_at_start(["s6"])
        cluster = build(config, failures=failures)
        cluster.write("x")
        assert cluster.server("s6").pw.ts == 0
        assert cluster.trace.dropped[("w", "s6", "crashed")] > 0

    def test_crash_helper_uses_current_time(self, config):
        cluster = build(config)
        cluster.write("x")
        cluster.crash("s1")
        assert cluster.is_crashed("s1")
        assert not cluster.failures.is_crashed("s1", 0.0)

    def test_message_filter_can_drop_selected_messages(self, config):
        def drop_prewrite_to_s1(source, destination, message, now):
            if destination == "s1" and isinstance(message, PreWrite):
                return DROP
            return None

        cluster = build(config, message_filter=drop_prewrite_to_s1)
        cluster.write("x")
        assert cluster.server("s1").pw.ts == 0

    def test_message_filter_can_delay_messages(self, config):
        def slow_to_s1(source, destination, message, now):
            if destination == "s1":
                return 100.0
            return None

        cluster = build(config, message_filter=slow_to_s1)
        handle = cluster.write("x")
        # The write completes without s1 (it is merely slow, not faulty).
        assert handle.done
        assert cluster.server("s1").pw.ts == 0
        cluster.run_for(200.0)
        assert cluster.server("s1").pw.ts == 1


class TestTrace:
    def test_trace_counts_messages_by_kind(self, config):
        # Paper-faithful: the WRITE sits out its timer, so every server's
        # acknowledgement has been delivered by the time it returns.
        cluster = build(config, timer_policy=TimerPolicy.WAIT)
        write = cluster.write("x")
        counts = cluster.trace.count_by_kind()
        assert counts["PreWrite"] == config.num_servers
        assert counts["PreWriteAck"] == config.num_servers
        assert write.latency == pytest.approx(cluster.writer.timer_delay)

    def test_trace_counts_messages_by_kind_deadline(self, config):
        # Deadline: the WRITE returns on the S - fw-th acknowledgement, one
        # round trip after the invocation; the rest arrive at an idle writer.
        cluster = build(config)
        write = cluster.write("x")
        counts = cluster.trace.count_by_kind()
        assert counts["PreWrite"] == config.num_servers
        assert counts["PreWriteAck"] == config.fast_write_quorum
        assert write.latency == pytest.approx(2.0) and write.fast
        assert cluster.timers_cancelled == 1
        cluster.run_until_quiescent()
        assert cluster.trace.count_by_kind()["PreWriteAck"] == config.num_servers

    def test_no_dead_round_one_timers_after_many_operations(self, config):
        cluster = build(config)
        for index in range(500):
            assert cluster.write(f"v{index}").fast
            assert cluster.read("r1").fast
        # Every round-1 timer was disarmed by the operation it belonged to,
        # and each cancelled entry was discarded as it surfaced.
        assert cluster.timers_cancelled == 1000
        cluster.run_until_quiescent()
        assert len(cluster.queue) == 0

    def test_summary_reports_delivered_and_dropped(self, config):
        cluster = build(config, failures=FailureSchedule.crash_at_start(["s6"]))
        cluster.write("x")
        summary = cluster.trace.summary()
        assert summary["delivered"] > 0
        assert summary["dropped"] > 0


class TestCounterConsistency:
    """Regression: frames_sent/messages_sent agree on Batch envelopes."""

    def test_transmit_counts_batch_payload(self, config):
        cluster = build(config)
        batch = Batch(sender="w", messages=(PreWrite(sender="w", ts=1), PreWrite(sender="w", ts=2)))
        cluster._transmit("w", "s1", batch)
        assert cluster.frames_sent == 1
        assert cluster.messages_sent == 2

    def test_explicit_delay_counts_batch_payload(self, config):
        # The filter-chosen-delay path must unbatch for the message counter
        # exactly like the normal transmit path: one frame, len(batch)
        # messages.
        cluster = build(config)
        batch = Batch(sender="w", messages=(PreWrite(sender="w", ts=1), PreWrite(sender="w", ts=2)))
        cluster._push_explicit("w", "s1", batch, delay=1.0)
        assert cluster.frames_sent == 1
        assert cluster.messages_sent == 2
        cluster._push_explicit("w", "s2", PreWrite(sender="w", ts=3), delay=1.0)
        assert cluster.frames_sent == 2
        assert cluster.messages_sent == 3


class TestIncarnationLookup:
    def test_unknown_process_raises_key_error(self, config):
        cluster = build(config)
        with pytest.raises(KeyError, match="unknown process"):
            cluster.incarnation("s99")

    def test_live_non_durable_server_is_incarnation_zero(self, config):
        cluster = build(config)
        assert cluster.incarnation("s1") == 0
